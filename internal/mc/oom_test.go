// Tests for the bounded-memory paths: the structured out-of-memory
// failure when no governor is armed, and graceful fidelity degradation
// instead of death when one is.
package mc_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/mc"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
)

// tinyMemConfig models a machine far too small for the ext pair's
// 256 KiB device images: OOM after roughly four stored states.
func tinyMemConfig() memmodel.Config {
	cfg := memmodel.DefaultConfig()
	cfg.RAMBytes = 1 << 20
	cfg.SwapBytes = 1 << 20
	return cfg
}

// TestOOMStructuredFailure checks the ungoverned death is orderly: the
// run finalizes with a typed *mc.OOMError wrapping
// memmodel.ErrOutOfMemory, partial counters survive, the journal's
// done record carries the failure, and the stream drains with status
// "failed".
func TestOOMStructuredFailure(t *testing.T) {
	memCfg := tinyMemConfig()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 14)
	defer sub.Close()

	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth: 3,
		MaxOps:   2000,
		Memory:   &memCfg,
		Journal:  jw,
		Stream:   bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()

	var oom *mc.OOMError
	if !errors.As(res.Err, &oom) {
		t.Fatalf("res.Err = %v, want *mc.OOMError", res.Err)
	}
	if !errors.Is(res.Err, memmodel.ErrOutOfMemory{}) {
		t.Fatal("OOMError must unwrap to memmodel.ErrOutOfMemory")
	}
	if oom.Ops != res.Ops || oom.UniqueStates != res.UniqueStates {
		t.Errorf("OOMError counters (%d, %d) disagree with result (%d, %d)",
			oom.Ops, oom.UniqueStates, res.Ops, res.UniqueStates)
	}
	if res.Ops == 0 || res.UniqueStates == 0 {
		t.Errorf("partial counters lost: %+v", res)
	}

	// The journal still closed with a done record carrying the failure.
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var done *journal.DoneRecord
	for i := range recs {
		if recs[i].T == journal.TypeDone {
			done = recs[i].Done
		}
	}
	if done == nil {
		t.Fatal("no done record in journal after OOM")
	}
	if !strings.Contains(done.Err, "out of memory") {
		t.Errorf("done.Err = %q, want the OOM failure", done.Err)
	}
	if done.Ops != res.Ops {
		t.Errorf("done.Ops = %d, want %d", done.Ops, res.Ops)
	}

	// The stream's final event is the drain with status "failed".
	events := sub.Drain()
	if len(events) == 0 {
		t.Fatal("no stream events")
	}
	last := events[len(events)-1]
	if last.Kind != stream.KindWorkerDrain || last.Detail != "failed" {
		t.Errorf("last event = %+v, want worker-drain failed", last)
	}
}

// TestMemBudgetDegradesInsteadOfOOM is the acceptance flip side: the
// same starved exploration with a governor armed completes — no error
// — at reduced fidelity with an omission estimate, and refuses to
// export resume knowledge from a lossy table.
func TestMemBudgetDegradesInsteadOfOOM(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:   []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth:  3,
		MaxOps:    2000,
		MemBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()

	if res.Err != nil {
		t.Fatalf("governed run died: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("false positive under memory pressure:\n%v", res.Bug)
	}
	if res.Fidelity == mcfs.FidelityExact {
		t.Fatal("run under a starving budget stayed exact; governor never acted")
	}
	if res.OmissionProb <= 0 || res.OmissionProb >= 1 {
		t.Errorf("OmissionProb = %v, want in (0,1)", res.OmissionProb)
	}
	if res.Resume != nil {
		t.Error("lossy table must not export resume knowledge")
	}
	var noExport visited.ErrNoExport
	if !errors.As(res.ResumeErr, &noExport) {
		t.Errorf("ResumeErr = %v, want visited.ErrNoExport", res.ResumeErr)
	}

	// The governor and the model recorded the degradation.
	if n := s.Config().Visited.Governor().Downgrades(); n == 0 {
		t.Error("Governor.Downgrades = 0 after degradation")
	}
	if s.MemoryStats().SoftWatermarkHits == 0 {
		t.Error("Stats.SoftWatermarkHits = 0 after pressure")
	}
}

// TestSwarmBudgetAcceptance is the PR's acceptance scenario: a seeded
// swarm that OOM-aborts without a budget completes with one, reporting
// the shared table's degraded fidelity and omission estimate, and the
// downgrade reaches both the swarm's stream and the first worker's hub.
func TestSwarmBudgetAcceptance(t *testing.T) {
	spec := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth: 3,
		MaxOps:   1500,
		Workers:  2,
	}

	// Without a budget the starved swarm dies on the memory model.
	memCfg := tinyMemConfig()
	starved := spec
	starved.Memory = &memCfg
	sr, err := mcfs.SwarmRun(starved, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sr.Err, memmodel.ErrOutOfMemory{}) {
		t.Fatalf("unbudgeted swarm err = %v, want OOM", sr.Err)
	}

	// With the same RAM as a governed budget it completes, degraded.
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 14)
	defer sub.Close()
	spec.MemBudget, spec.Stream = 1<<20, bus
	hubs := make([]*obs.Hub, spec.Workers)
	sr, err = mcfs.SwarmRun(spec, func(worker int, o *mcfs.Options) error {
		hubs[worker-1] = obs.New()
		o.Obs = hubs[worker-1]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("budgeted swarm died: %v", sr.Err)
	}
	if sr.Bug != nil {
		t.Fatalf("false positive under memory pressure:\n%v", sr.Bug)
	}
	if sr.Fidelity == visited.FidelityExact {
		t.Fatal("budgeted swarm stayed exact; governor never acted")
	}
	if sr.OmissionProb <= 0 {
		t.Errorf("OmissionProb = %v, want > 0", sr.OmissionProb)
	}
	var noExport visited.ErrNoExport
	if sr.Resume != nil || !errors.As(sr.ResumeErr, &noExport) {
		t.Errorf("Resume = %v, ResumeErr = %v; want refused export", sr.Resume, sr.ResumeErr)
	}

	degraded := 0
	for _, ev := range sub.Drain() {
		if ev.Kind == stream.KindFidelityDegraded {
			degraded++
			if ev.Detail == "" {
				t.Error("fidelity-degraded event missing detail")
			}
		}
	}
	if degraded == 0 {
		t.Error("no fidelity-degraded event on the swarm stream")
	}
	if n := hubs[0].Snapshot().Counters[obs.MetricFidelityDowngrades]; n == 0 {
		t.Error("worker 1's hub counted no fidelity downgrade")
	}
}

// TestDegradationSchedule pins what the governor does, in order, to the
// starved ext pair of TestMemBudgetDegradesInsteadOfOOM — under the
// 1 MiB budget of check.sh's smoke, which every store jumps straight
// past, and under one wide enough for the soft watermark to be seen —
// and what the run then reports. The schedule is read from a governor
// built here the way the facade builds its own (the bitstate array a
// quarter of the budget) with recording hooks; that run must report
// exactly what the facade's does.
func TestDegradationSchedule(t *testing.T) {
	for _, tc := range []struct {
		budget   int64
		report   string
		schedule []string
	}{
		{1 << 20, "ops 624, states 96, elapsed 1.2931237s, bitstate, p 2.59e-12",
			[]string{"exact->compact", "compact->bitstate"}},
		{16 << 20, "ops 1976, states 197, elapsed 3.1432247s, compact, p 7.93e-16",
			[]string{"evict 22 at depth 3", "evict 3 at depth 2", "evict 1 at depth 3", "exact->compact"}},
	} {
		session := func() *mcfs.Session {
			s, err := mcfs.NewSession(mcfs.Options{
				Targets:   []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
				MaxDepth:  3,
				MaxOps:    2000,
				MemBudget: tc.budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		report := func(r mcfs.Result) string {
			return fmt.Sprintf("ops %d, states %d, elapsed %v, %v, p %.3g",
				r.Ops, r.UniqueStates, r.Elapsed, r.Fidelity, r.OmissionProb)
		}

		facade := session()
		defer facade.Close()
		if got := report(facade.Run()); got != tc.report {
			t.Errorf("budget %d: run reports\n  %s, want\n  %s", tc.budget, got, tc.report)
		}

		hooked := session()
		defer hooked.Close()
		var schedule []string
		set := visited.NewSet(nil)
		visited.NewGovernor(set, visited.GovernorConfig{BitstateBytes: tc.budget / 4, Hooks: visited.Hooks{
			OnEvict: func(n, depth int) {
				schedule = append(schedule, fmt.Sprintf("evict %d at depth %d", n, depth))
			},
			OnDowngrade: func(from, to visited.Fidelity, _ float64) {
				schedule = append(schedule, fmt.Sprintf("%v->%v", from, to))
			},
		}})
		cfg := *hooked.Config()
		cfg.Visited = set
		if got := report(mc.Run(cfg)); got != tc.report {
			t.Errorf("budget %d: hooked run reports\n  %s, the facade's run\n  %s", tc.budget, got, tc.report)
		}
		if !slices.Equal(schedule, tc.schedule) {
			t.Errorf("budget %d: degradation schedule\n  %q, want\n  %q", tc.budget, schedule, tc.schedule)
		}
	}
}

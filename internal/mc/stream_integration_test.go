// Integration tests for the live exploration event stream: engine
// emission order, virtual-time determinism, the lossy-subscriber
// contract on the hot path, and swarm health/heatmap merging. Run with
// -race: publishers (workers) and consumers are concurrent.
package mc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/stream"
)

// crashStreamNDJSON runs the seeded ext4 journal-commit-first crash
// exploration with a fresh bus and returns the full event stream as
// NDJSON plus the run result.
func crashStreamNDJSON(t *testing.T) ([]byte, []stream.Event, mcfs.Result) {
	t.Helper()
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}},
		},
		MaxDepth:         1,
		MaxOps:           8000,
		CrashExploration: true,
		Stream:           bus,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("oversized subscriber dropped %d events", got)
	}
	events := sub.Drain()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), events, res
}

func TestCrashStreamDeterministicAndComplete(t *testing.T) {
	ndjson1, events, res := crashStreamNDJSON(t)

	if len(events) == 0 {
		t.Fatal("crash run emitted no events")
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != stream.KindWorkerStart || first.Seq != 1 {
		t.Errorf("first event = %+v, want worker-start seq 1", first)
	}
	if last.Kind != stream.KindWorkerDrain || last.Detail != "bug" {
		t.Errorf("last event = %+v, want worker-drain with status bug", last)
	}
	bugVerdicts, bugEvents := 0, 0
	var prevSeq uint64
	var prevAt = events[0].At - 1
	for _, ev := range events {
		if ev.Seq != prevSeq+1 {
			t.Fatalf("sequence gap: %d after %d", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if ev.At < prevAt {
			t.Fatalf("virtual time ran backwards: %v after %v", ev.At, prevAt)
		}
		prevAt = ev.At
		switch ev.Kind {
		case stream.KindCrashVerdict:
			if ev.Verdict == stream.VerdictBug {
				bugVerdicts++
				if ev.Op == "" || ev.Target == "" || ev.Writes == 0 {
					t.Errorf("bug verdict missing crash-point coordinates: %+v", ev)
				}
			}
		case stream.KindBug:
			bugEvents++
			if ev.Detail != "crash-consistency" {
				t.Errorf("bug event detail = %q, want crash-consistency", ev.Detail)
			}
		}
	}
	if bugVerdicts == 0 {
		t.Error("no crash-verdict event carries verdict=bug for the seeded bug")
	}
	if bugEvents != 1 {
		t.Errorf("bug events = %d, want exactly 1", bugEvents)
	}

	// The heatmap's bug cells pinpoint the same crash points.
	if res.CrashHeatmap == nil {
		t.Fatal("crash run produced no heatmap")
	}
	if res.CrashHeatmap.Bugs() == 0 {
		t.Error("heatmap has no bug cells for the seeded commit-first bug")
	}

	// Virtual time makes the stream bit-deterministic: a second fresh
	// run produces byte-identical NDJSON.
	ndjson2, _, _ := crashStreamNDJSON(t)
	if !bytes.Equal(ndjson1, ndjson2) {
		t.Error("two seeded crash runs produced different event streams")
	}
}

func TestSlowSubscriberNeverBlocksEngine(t *testing.T) {
	hub := obs.New()
	bus := mcfs.NewStream()
	bus.SetObs(hub)
	slow := bus.Subscribe(1) // never drained: every event past the first drops
	defer slow.Close()
	wide := bus.Subscribe(1 << 16)
	defer wide.Close()

	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   2000,
		Stream:   bus,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run with a stuck subscriber: %v", res.Err)
	}
	// The bounded space may exhaust before the op budget; what matters
	// is that the engine ran to its natural end at full speed.
	if res.Ops < 10*stream.HeartbeatEvery {
		t.Fatalf("engine ran only %d ops; too few to exercise the stream", res.Ops)
	}
	if slow.Dropped() == 0 {
		t.Errorf("capacity-1 subscriber dropped nothing over a %d-op run", res.Ops)
	}
	if bus.Dropped() != slow.Dropped()+wide.Dropped() {
		t.Errorf("bus Dropped = %d, want subscriber sum %d",
			bus.Dropped(), slow.Dropped()+wide.Dropped())
	}
	if got := hub.Snapshot().Counters[obs.MetricStreamDropped]; got != bus.Dropped() {
		t.Errorf("%s = %d, want bus total %d", obs.MetricStreamDropped, got, bus.Dropped())
	}

	// Heartbeats rode the op counter: 2000 executed ops at one beat per
	// 64 means the wide subscriber saw a steady pulse.
	beats := 0
	for _, ev := range wide.Drain() {
		if ev.Kind == stream.KindWorkerHeartbeat {
			beats++
		}
	}
	if want := int(res.Ops) / stream.HeartbeatEvery; beats < want {
		t.Errorf("heartbeats = %d, want >= %d (every %d ops)", beats, want, stream.HeartbeatEvery)
	}
}

func TestSwarmStreamMergesHealthAndHeatmap(t *testing.T) {
	const workers = 3
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	sr, err := mcfs.SwarmRun(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}},
		},
		MaxDepth:         1,
		MaxOps:           8000,
		CrashExploration: true,
		Workers:          workers,
		Stream:           bus,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("swarm error: %v", sr.Err)
	}
	if sr.Bug == nil {
		t.Fatal("swarm did not find the seeded crash bug")
	}

	if sr.CrashHeatmap == nil || sr.CrashHeatmap.Bugs() == 0 {
		t.Error("merged swarm heatmap has no bug cells")
	}
	if got := len(sr.WorkerHealth.Workers); got != workers {
		t.Fatalf("WorkerHealth has %d rows, want %d", got, workers)
	}
	for i, w := range sr.WorkerHealth.Workers {
		if w.Worker != i+1 {
			t.Errorf("health row %d is worker %d, want %d (swarm ids are 1..N)", i, w.Worker, i+1)
		}
		if w.Status == stream.WorkerRunning {
			t.Errorf("worker %d still 'running' after the swarm returned", w.Worker)
		}
	}

	// Interleaving across workers is scheduler-dependent, but each
	// worker's own subsequence must stay in publication order.
	lastSeq := map[int]uint64{}
	sawWorker := map[int]bool{}
	for _, ev := range sub.Drain() {
		if ev.Worker < 1 || ev.Worker > workers {
			t.Fatalf("event from unknown worker %d", ev.Worker)
		}
		sawWorker[ev.Worker] = true
		if ev.Seq <= lastSeq[ev.Worker] {
			t.Fatalf("worker %d events out of order: seq %d after %d", ev.Worker, ev.Seq, lastSeq[ev.Worker])
		}
		lastSeq[ev.Worker] = ev.Seq
	}
	if len(sawWorker) != workers {
		t.Errorf("events seen from %d workers, want all %d", len(sawWorker), workers)
	}
}

// progressRows parses a progress frame's per-worker lines into
// name -> {ops, unique, revisits}.
func progressRows(t *testing.T, frame string) map[string][3]int64 {
	t.Helper()
	rows := map[string][3]int64{}
	for _, line := range strings.Split(frame, "\n") {
		name, rest, ok := strings.Cut(strings.TrimPrefix(line, "progress "), ": depth=")
		if !ok || name == "swarm" {
			continue
		}
		var depth int
		var r [3]int64
		if _, err := fmt.Sscanf(rest, "%d states=%d revisits=%d ops=%d", &depth, &r[1], &r[2], &r[0]); err != nil {
			t.Fatalf("unparsable progress line %q: %v", line, err)
		}
		rows[name] = r
	}
	return rows
}

// TestProgressRendersWhileSwarmRuns renders frames from the bus's
// worker table and the workers' hubs while a 3-worker shared swarm
// writes both (run with -race), then checks the law of the final
// frame: each worker's ops, unique states and revisits are its
// Result's, because the drain events carry the final tallies.
func TestProgressRendersWhileSwarmRuns(t *testing.T) {
	const workers = 3
	bus := mcfs.NewStream()
	hubs := make([]*obs.Hub, workers)
	for i := range hubs {
		hubs[i] = obs.New()
	}
	done := make(chan struct{})
	var sr mcfs.SwarmResult
	var err error
	go func() {
		defer close(done)
		sr, err = mcfs.SwarmRun(mcfs.Options{
			Targets:      []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth:     3,
			MaxOps:       2000,
			Workers:      workers,
			ShareVisited: true,
			Stream:       bus,
		}, func(worker int, o *mcfs.Options) error {
			o.Obs = hubs[worker-1]
			return nil
		})
	}()
	stall := &stream.Stall{Ops: 64}
	frames := 0
	for running := true; running; frames++ {
		select {
		case <-done:
			running = false
		default:
		}
		if err := stream.WriteProgress(io.Discard, bus.Workers(), hubs, stall); err != nil {
			t.Fatal(err)
		}
	}
	if err != nil || sr.Err != nil {
		t.Fatalf("swarm: %v / %v", err, sr.Err)
	}
	var final bytes.Buffer
	if err := stream.WriteProgress(&final, bus.Workers(), hubs, nil); err != nil {
		t.Fatal(err)
	}
	rows := progressRows(t, final.String())
	if len(rows) != workers || !strings.Contains(final.String(), "progress swarm: workers=3 ") {
		t.Fatalf("final frame after %d live frames:\n%s", frames, final.String())
	}
	for i, res := range sr.Workers {
		want := [3]int64{res.Ops, res.UniqueStates, res.Revisits}
		if got := rows[fmt.Sprintf("w%d", i+1)]; got != want {
			t.Errorf("worker %d final row (ops, unique, revisits) = %v, want its Result's %v", i+1, got, want)
		}
	}
}

func TestProgressFinalFrameIsTheResult(t *testing.T) {
	bus := mcfs.NewStream()
	hub := obs.New()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   500,
		Stream:   bus,
		Obs:      hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	var final bytes.Buffer
	if err := stream.WriteProgress(&final, bus.Workers(), []*obs.Hub{hub}, nil); err != nil {
		t.Fatal(err)
	}
	want := [3]int64{res.Ops, res.UniqueStates, res.Revisits}
	if got := progressRows(t, final.String())["main"]; got != want {
		t.Errorf("final row (ops, unique, revisits) = %v, want the Result's %v\n%s", got, want, final.String())
	}
	if !strings.Contains(final.String(), "status=done health=done") || !strings.Contains(final.String(), "check p50=") {
		t.Errorf("final frame lacks the drained status or check quantiles:\n%s", final.String())
	}
}

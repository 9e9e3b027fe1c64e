package mcfs

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"mcfs/internal/bench"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
)

// This file is the committed benchmark suite behind `fsbench -json`:
// the scenario set whose report is checked in as BENCH_mc.json and
// diffed by `fsbench -compare` on every PR. Rates are per virtual
// second from the calibrated cost model, so a regression is a code
// change, not machine noise.

// BenchBudget is the default per-scenario operation budget.
const BenchBudget = 400

// RunBenchReport executes every benchmark scenario at the given
// per-scenario operation budget (BenchBudget when <= 0) and returns
// the trajectory point `fsbench -json` emits.
func RunBenchReport(budget int64) (bench.Report, error) {
	if budget <= 0 {
		budget = BenchBudget
	}
	report := bench.Report{Schema: bench.SchemaVersion, Budget: budget}
	for _, sc := range []struct {
		name string
		run  func(int64) (bench.Scenario, error)
	}{
		{"explore-ext2-ext4", benchExplore(Options{Targets: []TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}, MaxDepth: 4})},
		{"explore-ext4-jffs2", benchExplore(Options{Targets: []TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}}, MaxDepth: 4})},
		{"swarm-shared-visited", benchSwarmShared},
		{"crash-ext2-ext4", benchExplore(Options{Targets: []TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}, MaxDepth: 2, CrashExploration: true})},
		{"journal-replay", benchJournalReplay},
		{"states-per-mb-exact", benchStatesPerMBExact},
		{"states-per-mb-bitstate", benchStatesPerMBBitstate},
	} {
		row, err := sc.run(budget)
		if err != nil {
			return report, fmt.Errorf("mcfs: bench scenario %s: %w", sc.name, err)
		}
		row.Name = sc.name
		report.Scenarios = append(report.Scenarios, row)
	}
	return report, nil
}

// benchRun executes one profiled session and folds it into a scenario
// row.
func benchRun(opts Options, budget int64) (bench.Scenario, Result, error) {
	hub := obs.New()
	opts.Obs = hub
	opts.MaxOps = budget
	if opts.Memory == nil {
		memCfg := memmodel.DefaultConfig()
		opts.Memory = &memCfg
	}
	s, err := NewSession(opts)
	if err != nil {
		return bench.Scenario{}, Result{}, err
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		return bench.Scenario{}, res, res.Err
	}
	if res.Bug != nil {
		return bench.Scenario{}, res, fmt.Errorf("unexpected bug: %v", res.Bug.Discrepancy)
	}
	row := scenarioRow(res.Ops, res.UniqueStates, res.Elapsed, hub.Profile())
	row.PeakMemBytes = s.MemoryStats().PeakBytes
	return row, res, nil
}

// scenarioRow derives a scenario's rates and phase attribution.
func scenarioRow(ops, unique int64, elapsed time.Duration, snap obs.Profile) bench.Scenario {
	row := bench.Scenario{Ops: ops, UniqueStates: unique}
	if secs := elapsed.Seconds(); secs > 0 {
		row.OpsPerSec = round1(float64(ops) / secs)
		row.StatesPerSec = round1(float64(unique) / secs)
	}
	if shares := snap.Shares(); len(shares) > 0 {
		row.PhaseShares = make(map[string]float64, len(shares))
		for phase, share := range shares {
			row.PhaseShares[phase] = round4(share)
		}
	}
	if n := len(snap.Samples); n > 0 {
		if last := snap.Samples[n-1]; last.At > 0 && last.CrashPoints > 0 {
			row.CrashPointsPerSec = round1(float64(last.CrashPoints) / last.At.Seconds())
		}
	}
	return row
}

// benchExplore is the scenario that is nothing but a run spec.
func benchExplore(opts Options) func(int64) (bench.Scenario, error) {
	return func(budget int64) (bench.Scenario, error) {
		row, _, err := benchRun(opts, budget)
		return row, err
	}
}

// benchSwarmShared measures a two-worker shared-visited swarm. The
// aggregate rate uses the slowest worker's virtual elapsed — the
// swarm's wall-clock in virtual terms — and the phase shares come from
// the merged per-worker profile.
func benchSwarmShared(budget int64) (bench.Scenario, error) {
	memCfg := memmodel.DefaultConfig()
	var peak int64
	sr, err := runSwarm(Options{
		Targets:      []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:     3,
		MaxOps:       budget,
		Memory:       &memCfg,
		Workers:      2,
		ShareVisited: true,
	}, func(_ int, o *Options) error {
		o.Obs = obs.New()
		return nil
	}, func(sessions []*Session) {
		for _, s := range sessions {
			peak = max(peak, s.MemoryStats().PeakBytes)
		}
	})
	if err != nil {
		return bench.Scenario{}, err
	}
	if sr.Err != nil {
		return bench.Scenario{}, sr.Err
	}
	if sr.Bug != nil {
		return bench.Scenario{}, fmt.Errorf("unexpected bug: %v", sr.Bug.Discrepancy)
	}
	row := scenarioRow(sr.Ops, sr.GlobalUniqueStates, sr.Elapsed, sr.Perf)
	row.PeakMemBytes = peak
	return row, nil
}

// benchJournalReplay measures the flight recorder end to end: an
// exploration recorded to an in-memory journal (the journal phase share
// is the recording overhead), then the journal replayed against a
// fresh session for the replay rate.
func benchJournalReplay(budget int64) (bench.Scenario, error) {
	opts := Options{
		Targets:  []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	recOpts := opts
	recOpts.Journal = jw
	row, _, err := benchRun(recOpts, budget)
	if err != nil {
		return row, err
	}
	if err := jw.Close(); err != nil {
		return row, err
	}
	recs, err := journal.Read(&buf)
	if err != nil {
		return row, err
	}
	replay, err := NewSession(opts)
	if err != nil {
		return row, err
	}
	defer replay.Close()
	rep, err := replay.ReplayJournal(recs)
	if err != nil {
		return row, err
	}
	if rep.Diverged {
		return row, fmt.Errorf("replay diverged at %d: %s", rep.DivergedAt, rep.Reason)
	}
	if elapsed := replay.Clock().Now(); elapsed > 0 {
		row.ReplayOpsPerSec = round1(float64(rep.Steps) / elapsed.Seconds())
	}
	return row, nil
}

// The states-per-MB pair measures the memory-efficiency claim behind
// the reduced-fidelity visited backends: the same exploration against
// the same visited-table byte budget, once with the exact backend
// (capacity = budget / entry size, then the search is cut off) and
// once with the bitstate backend (the whole budget is one Bloom array).
// Both run at a FIXED internal operation budget, independent of the
// suite budget, so the smoke run and the committed run measure the
// same exploration and the comparison gate sees zero drift.
const (
	// benchStatesPerMBTableBytes is the visited-table byte budget.
	benchStatesPerMBTableBytes = 1 << 10
	// benchStatesPerMBOps is the fixed internal operation budget.
	benchStatesPerMBOps = 4000
)

// statesPerMB converts a unique-state count under the fixed table
// budget to the committed states-per-MB rate.
func statesPerMB(unique int64) float64 {
	return round1(float64(unique) * float64(1<<20) / float64(benchStatesPerMBTableBytes))
}

func benchStatesPerMBExact(int64) (bench.Scenario, error) {
	row, res, err := benchRun(Options{
		Targets:   []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:  6,
		MaxStates: benchStatesPerMBTableBytes / visited.ExactEntryBytes,
	}, benchStatesPerMBOps)
	if err != nil {
		return row, err
	}
	row.StatesPerMB = statesPerMB(res.UniqueStates)
	return row, nil
}

func benchStatesPerMBBitstate(int64) (bench.Scenario, error) {
	row, res, err := benchRun(Options{
		Targets:       []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:      6,
		Visited:       VisitedBitstate,
		BitstateBytes: benchStatesPerMBTableBytes,
	}, benchStatesPerMBOps)
	if err != nil {
		return row, err
	}
	row.StatesPerMB = statesPerMB(res.UniqueStates)
	row.Fidelity = res.Fidelity.String()
	row.OmissionProb = res.OmissionProb
	return row, nil
}

// round1 and round4 keep the committed report tidy: rates to one
// decimal, shares to four.
func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

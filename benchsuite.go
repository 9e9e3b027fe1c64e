package mcfs

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
)

// This file is the benchmark suite whose report is checked in as
// BENCH_mc.json, a golden artifact like the engine's and the CLIs':
// TestBenchReportReproducesCommittedTrajectory compares a fresh report
// with it and `-update` rewrites it. Rates are per virtual second from
// the calibrated cost model, so a changed row is a code change, not
// machine noise.

// BenchBudget is the per-scenario operation budget.
const BenchBudget = 400

// BenchReport is the benchmark suite's report, the layout of
// BENCH_mc.json.
type BenchReport struct {
	// Schema is the report layout version (1).
	Schema int `json:"schema"`
	// Budget is the per-scenario operation budget the report ran at.
	Budget int64 `json:"budget"`
	// Scenarios holds one row per benchmark scenario, in suite order.
	Scenarios []BenchScenario `json:"scenarios"`
}

// BenchScenario is one benchmark row: a named exploration configuration
// and its measured rates, phase attribution, and memory high-water mark.
type BenchScenario struct {
	// Name identifies the scenario ("explore-ext2-ext4", ...).
	Name string `json:"name"`
	// Ops and UniqueStates describe the run that produced the rates.
	Ops          int64 `json:"ops"`
	UniqueStates int64 `json:"unique_states"`
	// OpsPerSec and StatesPerSec are per virtual second.
	OpsPerSec    float64 `json:"ops_per_sec"`
	StatesPerSec float64 `json:"states_per_sec"`
	// CrashPointsPerSec is the crash-oracle probe rate (crash scenarios
	// only).
	CrashPointsPerSec float64 `json:"crash_points_per_sec,omitempty"`
	// ReplayOpsPerSec is the flight-recorder replay rate (journal
	// scenario only).
	ReplayOpsPerSec float64 `json:"replay_ops_per_sec,omitempty"`
	// PeakMemBytes is the memory model's footprint high-water mark.
	PeakMemBytes int64 `json:"peak_mem_bytes,omitempty"`
	// StatesPerMB is unique states recorded per MB of visited-table
	// budget (states-per-mb scenarios only) — the memory-efficiency
	// claim behind the reduced-fidelity backends.
	StatesPerMB float64 `json:"states_per_mb,omitempty"`
	// Fidelity is the visited table's final matching precision
	// ("compact", "bitstate"; omitted at exact fidelity).
	Fidelity string `json:"fidelity,omitempty"`
	// OmissionProb is the estimated state-omission probability at the
	// final fidelity (zero at exact).
	OmissionProb float64 `json:"omission_prob,omitempty"`
	// PhaseShares is each engine phase's fraction of attributed time.
	PhaseShares map[string]float64 `json:"phase_shares,omitempty"`
}

// RunBenchReport executes every benchmark scenario at BenchBudget
// operations and returns the report BENCH_mc.json holds.
func RunBenchReport() (BenchReport, error) {
	report := BenchReport{Schema: 1, Budget: BenchBudget}
	for _, sc := range []struct {
		name string
		run  func() (BenchScenario, error)
	}{
		{"explore-ext2-ext4", benchExplore(Options{Targets: []TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}, MaxDepth: 4})},
		{"explore-ext4-jffs2", benchExplore(Options{Targets: []TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}}, MaxDepth: 4})},
		{"swarm-shared-visited", benchSwarmShared},
		{"crash-ext2-ext4", benchExplore(Options{Targets: []TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}, MaxDepth: 2, CrashExploration: true})},
		{"journal-replay", benchJournalReplay},
		{"states-per-mb-exact", benchStatesPerMBExact},
		{"states-per-mb-bitstate", benchStatesPerMBBitstate},
	} {
		row, err := sc.run()
		if err != nil {
			return report, fmt.Errorf("mcfs: bench scenario %s: %w", sc.name, err)
		}
		row.Name = sc.name
		report.Scenarios = append(report.Scenarios, row)
	}
	return report, nil
}

// benchRun executes one profiled session of budget operations and folds
// it into a scenario row.
func benchRun(opts Options, budget int64) (BenchScenario, Result, error) {
	hub := obs.New()
	opts.Obs = hub
	opts.MaxOps = budget
	if opts.Memory == nil {
		memCfg := memmodel.DefaultConfig()
		opts.Memory = &memCfg
	}
	s, err := NewSession(opts)
	if err != nil {
		return BenchScenario{}, Result{}, err
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		return BenchScenario{}, res, res.Err
	}
	if res.Bug != nil {
		return BenchScenario{}, res, fmt.Errorf("unexpected bug: %v", res.Bug.Discrepancy)
	}
	row := scenarioRow(res.Ops, res.UniqueStates, res.Elapsed, hub.Profile())
	row.PeakMemBytes = s.MemoryStats().PeakBytes
	return row, res, nil
}

// scenarioRow derives a scenario's rates and phase attribution.
func scenarioRow(ops, unique int64, elapsed time.Duration, snap obs.Profile) BenchScenario {
	row := BenchScenario{Ops: ops, UniqueStates: unique}
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
	row.CrashPointsPerSec = round1(snap.CrashPointsPerSec())
	return row
}

// benchExplore is the scenario that is nothing but a run spec.
func benchExplore(opts Options) func() (BenchScenario, error) {
	return func() (BenchScenario, error) {
		row, _, err := benchRun(opts, BenchBudget)
		return row, err
	}
}

// benchSwarmShared measures a two-worker shared-visited swarm. The
// aggregate rate uses the slowest worker's virtual elapsed — the
// swarm's wall-clock in virtual terms — and the phase shares come from
// the merged per-worker profile.
func benchSwarmShared() (BenchScenario, error) {
	memCfg := memmodel.DefaultConfig()
	var peak int64
	sr, err := runSwarm(Options{
		Targets:      []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:     3,
		MaxOps:       BenchBudget,
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
		return BenchScenario{}, err
	}
	if sr.Err != nil {
		return BenchScenario{}, sr.Err
	}
	if sr.Bug != nil {
		return BenchScenario{}, fmt.Errorf("unexpected bug: %v", sr.Bug.Discrepancy)
	}
	row := scenarioRow(sr.Ops, sr.GlobalUniqueStates, sr.Elapsed, sr.Perf)
	row.PeakMemBytes = peak
	return row, nil
}

// benchJournalReplay measures the flight recorder end to end: an
// exploration recorded to an in-memory journal (the journal phase share
// is the recording overhead), then the journal replayed against a
// fresh session for the replay rate.
func benchJournalReplay() (BenchScenario, error) {
	opts := Options{
		Targets:  []TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	recOpts := opts
	recOpts.Journal = jw
	row, _, err := benchRun(recOpts, BenchBudget)
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
// Both run at an operation budget of their own, ten times BenchBudget,
// so the bitstate run goes on long after the exact table is full.
const (
	// benchStatesPerMBTableBytes is the visited-table byte budget.
	benchStatesPerMBTableBytes = 1 << 10
	// benchStatesPerMBOps is the pair's operation budget.
	benchStatesPerMBOps = 4000
)

// statesPerMB converts a unique-state count under the fixed table
// budget to the committed states-per-MB rate.
func statesPerMB(unique int64) float64 {
	return round1(float64(unique) * float64(1<<20) / float64(benchStatesPerMBTableBytes))
}

func benchStatesPerMBExact() (BenchScenario, error) {
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

func benchStatesPerMBBitstate() (BenchScenario, error) {
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

package mc_test

import (
	"sync"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
)

// TestExplorePhaseProfile runs a bounded exploration with a hub attached
// and checks the engine attributed time to the expected phases in
// virtual time.
func TestExplorePhaseProfile(t *testing.T) {
	hub := obs.New()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   400,
		Obs:      hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("unexpected bug: %v", res.Bug)
	}
	snap := hub.Profile()
	if !snap.Enabled() {
		t.Fatal("hub recorded no phases")
	}
	// Every normal exploration exercises these phases; fsck and hash (the
	// crash oracle's metadata hashes) only appear under crash exploration.
	for _, phase := range []string{
		obs.PhaseCheckpoint, obs.PhaseExecute, obs.PhaseVerify,
		obs.PhaseRestore,
	} {
		h, ok := snap.Phases[phase]
		if !ok || h.Count == 0 {
			t.Errorf("phase %q not recorded", phase)
		}
	}
	for _, phase := range []string{obs.PhaseFsck, obs.PhaseHash} {
		if _, ok := snap.Phases[phase]; ok {
			t.Errorf("%s phase recorded without crash exploration", phase)
		}
	}
	// The execute phase ran once per executed op, and so did verify: its
	// one abstraction walk is the only one an op gets.
	for _, phase := range []string{obs.PhaseExecute, obs.PhaseVerify} {
		if n := snap.Phases[phase].Count; n != res.Ops {
			t.Errorf("%s phase count = %d, want %d (one per op)", phase, n, res.Ops)
		}
	}
	if total := snap.Total(); total <= 0 {
		t.Errorf("Total() = %v, want > 0 (virtual clock must advance)", total)
	}
	if len(snap.Samples) < 2 {
		t.Fatalf("%d telemetry samples recorded over %d ops, want one per %d", len(snap.Samples), res.Ops, obs.DefaultSampleEvery)
	}
	last := snap.Samples[len(snap.Samples)-1]
	if last.Ops > res.Ops || last.Unique > res.UniqueStates || last.Revisits > res.Revisits {
		t.Errorf("last sample %+v exceeds final counters ops=%d unique=%d revisits=%d",
			last, res.Ops, res.UniqueStates, res.Revisits)
	}
}

// TestCrashExplorePhaseProfile checks that crash exploration attributes
// fsck and oracle-hash time and counts crash points in the telemetry.
func TestCrashExplorePhaseProfile(t *testing.T) {
	hub := obs.New()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:          []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth:         1,
		MaxOps:           600,
		CrashExploration: true,
		Obs:              hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("unexpected bug: %v", res.Bug)
	}
	if res.Crash.PointsExplored == 0 {
		t.Fatal("crash exploration tested no crash points")
	}
	snap := hub.Profile()
	if _, ok := snap.Phases[obs.PhaseFsck]; !ok {
		t.Error("fsck phase not recorded under crash exploration (ext4 plane has fsck)")
	}
	if _, ok := snap.Phases[obs.PhaseRemount]; !ok {
		t.Error("remount phase not recorded under crash exploration")
	}
	if h := snap.Phases[obs.PhaseHash]; h.Count == 0 {
		t.Error("hash phase not recorded under crash exploration (the oracle hashes metadata)")
	}
	var sawCrashPoints bool
	for _, smp := range snap.Samples {
		if smp.CrashPoints > 0 {
			sawCrashPoints = true
			break
		}
	}
	if !sawCrashPoints {
		t.Error("telemetry samples never saw a nonzero crash-point count")
	}
}

// TestSwarmMergesPerf checks that SwarmRun merges per-worker phase
// profiles and drops per-worker telemetry series.
func TestSwarmMergesPerf(t *testing.T) {
	var mu sync.Mutex
	hubs := make(map[int]*obs.Hub)
	sr, err := mcfs.SwarmRun(mcfs.Options{
		Targets:      []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:     2,
		MaxOps:       200,
		Workers:      2,
		ShareVisited: true,
	}, func(worker int, o *mcfs.Options) error {
		o.Obs = obs.New()
		mu.Lock()
		hubs[worker] = o.Obs
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Bug != nil {
		t.Fatalf("unexpected bug: %v", sr.Bug)
	}
	if !sr.Perf.Enabled() {
		t.Fatal("merged swarm snapshot recorded no phases")
	}
	var workers int64
	for _, h := range hubs {
		workers += h.Profile().Phases[obs.PhaseExecute].Count
	}
	if got := sr.Perf.Phases[obs.PhaseExecute].Count; got != workers {
		t.Errorf("merged execute count = %d, want sum of workers %d", got, workers)
	}
	if len(sr.Perf.Samples) != 0 {
		t.Errorf("merged snapshot kept %d telemetry samples, want 0", len(sr.Perf.Samples))
	}
}

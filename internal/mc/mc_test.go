// Tests for the explorer use the public mcfs facade to assemble sessions
// (external test package, so no import cycle).
package mc_test

import (
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/errno"
	"mcfs/internal/workload"
)

func TestCleanVeriFSPairFindsNoBug(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("false positive on clean pair:\n%v", res.Bug)
	}
	if res.Ops == 0 || res.UniqueStates < 2 {
		t.Errorf("no exploration happened: %+v", res)
	}
	if res.Revisits == 0 {
		t.Error("no visited-state pruning at depth 2; abstraction not deduplicating")
	}
	if res.Rate <= 0 {
		t.Errorf("rate = %v", res.Rate)
	}
}

func TestExtPairWithRemountTracking(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth: 2,
		MaxOps:   120,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("false positive on ext2 vs ext4:\n%v", res.Bug)
	}
}

func TestExtVsJFFS2(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
		MaxDepth: 2,
		MaxOps:   80,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("false positive on ext4 vs jffs2:\n%v", res.Bug)
	}
}

func TestFindsHoleBug(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	if res.Bug == nil {
		t.Fatalf("hole bug not found in %d ops", res.Ops)
	}
	if len(res.Bug.Trail) == 0 {
		t.Fatal("bug report has no trail")
	}
	// The trail must end in a write (the op that exposes the hole).
	last := res.Bug.Trail[len(res.Bug.Trail)-1]
	if last.Kind != workload.OpWriteFile && last.Kind != workload.OpRead {
		t.Errorf("unexpected final op %v", last)
	}
	t.Logf("found after %d ops: %v", res.Bug.OpsExecuted, res.Bug.Discrepancy)

	// The trail must replay on a FRESH pair of file systems.
	s2, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d, _, err := s2.VerifyTrail(res.Bug.Trail, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Error("trail did not replay on a fresh session")
	}
}

func TestFindsSizeBug(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugSizeUpdateOnOverflow}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	if res.Bug == nil {
		t.Fatalf("size bug not found in %d ops", res.Ops)
	}
	// The symptom is a file-size mismatch.
	joined := strings.Join(res.Bug.Discrepancy.Details, " ")
	if !strings.Contains(joined, "size") {
		t.Errorf("expected a size discrepancy, got: %v", res.Bug.Discrepancy)
	}
}

func TestFindsTruncateBugAgainstExt4(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext4"},
			{Kind: "verifs1", Bugs: []string{mcfs.BugTruncateNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	if res.Bug == nil {
		t.Fatalf("truncate bug not found in %d ops", res.Ops)
	}
	joined := strings.Join(res.Bug.Discrepancy.Details, " ")
	if !strings.Contains(joined, "content") && !strings.Contains(joined, "bytes") {
		t.Errorf("expected a content discrepancy, got: %v", res.Bug.Discrepancy)
	}
}

func TestFindsCacheInvalidationBug(t *testing.T) {
	// §6: VeriFS restores state without invalidating kernel caches; a
	// later mkdir sees a stale dentry and reports EEXIST while the other
	// file system succeeds. The explorer's own backtracking (via the
	// checkpoint tracker) triggers the restores.
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext4"},
			{Kind: "verifs1", Bugs: []string{mcfs.BugNoCacheInvalidate}},
		},
		MaxDepth: 3,
		MaxOps:   20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("engine error: %v", res.Err)
	}
	if res.Bug == nil {
		t.Fatalf("cache-invalidation bug not found in %d ops", res.Ops)
	}
	t.Logf("found after %d ops: %v", res.Bug.OpsExecuted, res.Bug.Discrepancy)
}

func TestMaxOpsBudgetRespected(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 5,
		MaxOps:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Ops > 55 { // small overshoot allowed (budget checked per loop)
		t.Errorf("Ops = %d, budget 50", res.Ops)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func() mcfs.Result {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 2,
			MaxOps:   150,
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Run()
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.UniqueStates != b.UniqueStates || a.Revisits != b.Revisits {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSwarmFindsBug(t *testing.T) {
	// Swarm verification (§2): several diversified workers explore
	// independent instances in parallel; at least one finds the bug.
	sr, err := mcfs.SwarmRun(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   2000,
		Workers:  4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Workers) != 4 {
		t.Fatalf("got %d results", len(sr.Workers))
	}
	found := 0
	for _, r := range sr.Workers {
		if r.Err != nil {
			t.Errorf("worker error: %v", r.Err)
		}
		if r.Bug != nil {
			found++
		}
	}
	if found == 0 {
		t.Error("no swarm worker found the seeded bug")
	}
}

func TestRunWithMemoryModel(t *testing.T) {
	memCfg := mcfs.DefaultMemoryConfig()
	memCfg.RAMBytes = 1 << 20 // tiny RAM: ext device images spill to swap
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth: 2,
		MaxOps:   60,
		Memory:   &memCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	stats := s.MemoryStats()
	if stats.StoredBytes == 0 {
		t.Error("memory model recorded no stored state")
	}
	if stats.SwapBytes == 0 {
		t.Error("tiny RAM budget but no swap used")
	}
}

func TestDifferentSeedsDiversify(t *testing.T) {
	run := func(seed int64) mcfs.Result {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets: []mcfs.TargetSpec{
				{Kind: "verifs1"},
				{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
			},
			MaxDepth: 3,
			MaxOps:   4000,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Run()
	}
	a, b := run(1), run(2)
	if a.Bug == nil && b.Bug == nil {
		t.Fatal("neither seed found the bug")
	}
	if a.Bug != nil && b.Bug != nil && a.Bug.OpsExecuted == b.Bug.OpsExecuted {
		t.Log("both seeds found the bug after identical op counts (possible but unusual)")
	}
}

// TestReadComparesEachTargetsBytes: a read_file that returns as many
// bytes on every target but not the same ones is a data discrepancy, not
// one the state check finds after it. Each target reads into a buffer of
// its own; were one shared, the last target's bytes would overwrite the
// first's before the comparison and the step would see them agree.
func TestReadComparesEachTargetsBytes(t *testing.T) {
	for _, pair := range [][2]string{{"verifs1", "verifs2"}, {"ext2", "ext4"}} {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: pair[0]}, {Kind: pair[1]}},
			MaxDepth: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Set the two files apart behind the checker's back.
		for i, tgt := range s.Config().Checker.Targets() {
			for _, op := range []workload.Op{
				{Kind: workload.OpCreateFile, Path: "/f", Mode: 0o644},
				{Kind: workload.OpWriteFile, Path: "/f", Size: 64, Byte: byte('a' + i)},
			} {
				if r := workload.Execute(s.Kernel(), tgt.MountPoint, op); r.Err != errno.OK {
					t.Fatalf("%s on %s: %v", op, tgt.Name, r.Err)
				}
			}
		}
		d, _, err := s.VerifyTrail([]workload.Op{{Kind: workload.OpRead, Path: "/f"}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil || d.Kind != "data" {
			t.Errorf("%s/%s: reading files of 64 a's and 64 b's reported %v, want a data discrepancy", pair[0], pair[1], d)
		}
		s.Close()
	}
}

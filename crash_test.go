package mcfs_test

import (
	"strings"
	"testing"
	"time"

	"mcfs"
)

// Crash-consistency exploration, end to end: the seeded ext4 journal bug
// (commit block written before the descriptor and metadata images) is
// invisible to normal differential checking — a synced volume is always
// consistent — and must be caught only when crash points inside the
// write window are explored.

func crashSession(t *testing.T, bugs []string, crash bool) *mcfs.Session {
	t.Helper()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: bugs},
		},
		MaxDepth:         1,
		MaxOps:           8000,
		CrashExploration: crash,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestCrashExplorationFindsJournalCommitFirst(t *testing.T) {
	s := crashSession(t, []string{mcfs.BugJournalCommitFirst}, true)
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Bug == nil {
		t.Fatalf("seeded journal-commit-first bug not found (crash stats: %+v)", res.Crash)
	}
	if res.Bug.Discrepancy.Kind != "crash-consistency" {
		t.Fatalf("bug kind = %q, want crash-consistency", res.Bug.Discrepancy.Kind)
	}
	if res.Bug.Crash == nil {
		t.Fatal("crash bug carries no CrashSpec")
	}
	if res.Bug.Crash.TargetName != "ext4#1" {
		t.Errorf("crash target = %q, want ext4#1", res.Bug.Crash.TargetName)
	}
	if len(res.Bug.Trail) == 0 {
		t.Error("crash bug has no trail")
	}
	found := false
	for _, d := range res.Bug.Discrepancy.Details {
		if strings.Contains(d, "crash after write") {
			found = true
		}
	}
	if !found {
		t.Errorf("bug details carry no crash point: %q", res.Bug.Discrepancy.Details)
	}
	if res.Crash.PointsExplored == 0 {
		t.Error("no crash points explored")
	}

	// The trail must reproduce in a fresh session.
	s2 := crashSession(t, []string{mcfs.BugJournalCommitFirst}, true)
	got, same, err := s2.VerifyTrail(res.Bug.Trail, res.Bug.Crash, &mcfs.Discrepancy{Kind: res.Bug.Discrepancy.Kind})
	if err != nil {
		t.Fatalf("VerifyTrail: %v", err)
	}
	if !same {
		t.Fatalf("crash trail did not reproduce (got %v)", got)
	}
}

func TestCrashExplorationCleanExt4Passes(t *testing.T) {
	s := crashSession(t, nil, true)
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("clean ext4 flagged: %v", res.Bug)
	}
	if res.Crash.PointsExplored == 0 {
		t.Error("no crash points explored")
	}
	if res.Crash.Recovered != res.Crash.PointsExplored {
		t.Errorf("recoveries %d != points explored %d", res.Crash.Recovered, res.Crash.PointsExplored)
	}
}

func TestSeededBugInvisibleWithoutCrashExploration(t *testing.T) {
	s := crashSession(t, []string{mcfs.BugJournalCommitFirst}, false)
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("journal-commit-first visible without crash exploration: %v", res.Bug)
	}
}

func TestCrashExplorationNeedsEligibleTarget(t *testing.T) {
	_, err := mcfs.NewSession(mcfs.Options{
		Targets:          []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		CrashExploration: true,
	})
	if err == nil || !strings.Contains(err.Error(), "crash-testable") {
		t.Errorf("crash exploration without eligible targets: err = %v", err)
	}
}

func TestJournalCommitFirstRejectedOffExt4(t *testing.T) {
	_, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "ext2", Bugs: []string{mcfs.BugJournalCommitFirst}}},
	})
	if err == nil {
		t.Error("journal-commit-first accepted on ext2")
	}
}

func TestCrashBundleRoundTrip(t *testing.T) {
	opts := mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}},
		},
		MaxDepth:         1,
		MaxOps:           8000,
		CrashExploration: true,
	}
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res := s.Run()
	s.Close()
	if res.Bug == nil {
		t.Fatal("seeded crash bug not found")
	}

	dir := t.TempDir()
	if err := mcfs.WriteBundle(dir, opts, res, "", nil); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	b, err := mcfs.ReadBundle(dir)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.Bug.Crash == nil {
		t.Fatal("bundle lost the crash spec")
	}

	out, err := b.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !out.Reproduced {
		t.Fatalf("crash bundle did not reproduce: %v", out.Discrepancy)
	}

	min, stats, err := b.Shrink()
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if len(min) == 0 || len(min) > len(res.Bug.Trail) {
		t.Fatalf("minimized trail length %d (from %d)", len(min), len(res.Bug.Trail))
	}
	if stats.To != len(min) {
		t.Errorf("stats.To = %d, len(min) = %d", stats.To, len(min))
	}

	out2, err := mcfs.ReplayBundle(dir)
	if err != nil {
		t.Fatalf("ReplayBundle after shrink: %v", err)
	}
	if !out2.Reproduced {
		t.Error("full trail stopped reproducing after shrink")
	}
	if out2.MinReproduced == nil || !*out2.MinReproduced {
		t.Error("minimized crash trail did not reproduce")
	}
}

// TestCrashExplorationExt4VsJFFS2 pins the one crash-exploration pairing
// that mixes a block device with flash: the ext4 plane is strict (fsck +
// pre/post-state oracle), the jffs2 plane only has to recover to a
// mountable log. The counts are the run's whole crash-side behaviour —
// a refactor of the planes must not move them.
func TestCrashExplorationExt4VsJFFS2(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:          []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
		MaxDepth:         2,
		MaxOps:           1500,
		CrashExploration: true,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("clean ext4/jffs2 pair flagged: %v", res.Bug)
	}
	want := mcfs.CrashStats{Probes: 728, PointsExplored: 2824, Recovered: 2824}
	if res.Crash != want {
		t.Errorf("crash stats = %+v, want %+v", res.Crash, want)
	}
	// Every device call charges the virtual clock, so an unmoved elapsed
	// time says the planes issued the same calls in the same order.
	if res.Ops != 1092 || res.Elapsed != 7350229500*time.Nanosecond {
		t.Errorf("ops = %d, virtual elapsed = %v; want 1092 ops in 7.3502295s", res.Ops, res.Elapsed)
	}
}

package mcfs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/obs/journal"
)

// bundleFromBugRun explores the seeded write-hole pair with the flight
// recorder on and dumps the resulting bug as a repro bundle.
func bundleFromBugRun(t *testing.T) (string, mcfs.Result) {
	return bundleFromRun(t, mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
	})
}

// bundleFromRun explores opts (which must find a bug) with the flight
// recorder on and dumps the bug as a repro bundle.
func bundleFromRun(t *testing.T, opts mcfs.Options) (string, mcfs.Result) {
	t.Helper()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.jsonl")
	jw, err := journal.Create(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = jw
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	s.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug == nil {
		t.Fatal("seeded bug not found")
	}
	bundleDir := filepath.Join(dir, "bundle")
	if err := mcfs.WriteBundle(bundleDir, opts, res, jpath, nil); err != nil {
		t.Fatal(err)
	}
	return bundleDir, res
}

func TestBundleEndToEnd(t *testing.T) {
	bundleDir, res := bundleFromBugRun(t)

	for _, name := range []string{
		mcfs.BundleConfigFile, mcfs.BundleBugFile,
		mcfs.BundleJournalFile, mcfs.BundleCoverageFile,
	} {
		if _, err := os.Stat(filepath.Join(bundleDir, name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}

	b, err := mcfs.ReadBundle(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bug.Kind != res.Bug.Discrepancy.Kind {
		t.Errorf("bundle bug kind %q, run reported %q", b.Bug.Kind, res.Bug.Discrepancy.Kind)
	}
	if len(b.Trail) != len(res.Bug.Trail) {
		t.Fatalf("bundle trail %d ops, run reported %d", len(b.Trail), len(res.Bug.Trail))
	}
	if b.MinTrail != nil {
		t.Fatal("unshrunk bundle carries a minimized trail")
	}

	// Replay: the recorded discrepancy must reproduce on fresh targets
	// built purely from the bundle's config.
	out, err := mcfs.ReplayBundle(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatalf("bundle replay did not reproduce; observed %v", out.Discrepancy)
	}

	// The shipped journal replays deterministically.
	recs, err := b.JournalRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("bundle journal empty")
	}
	s, err := mcfs.NewSession(b.Config)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ReplayJournal(recs)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged || !rep.BugReproduced {
		t.Fatalf("journal replay: diverged=%v bug=%v (%s)", rep.Diverged, rep.BugReproduced, rep.Reason)
	}

	// Shrink: a deliberately redundant prefix is not in this DFS trail,
	// so only require the minimized trail to be no longer, reproducing,
	// and persisted; the strict-shrink case is covered by the padded
	// minimizer test in internal/mc.
	min, stats, err := mcfs.ShrinkBundle(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) > len(b.Trail) {
		t.Fatalf("shrink grew the trail: %d -> %d", len(b.Trail), len(min))
	}
	if stats.From != len(b.Trail) || stats.To != len(min) {
		t.Errorf("shrink stats %+v inconsistent", stats)
	}
	if _, err := os.Stat(filepath.Join(bundleDir, mcfs.BundleMinTrailFile)); err != nil {
		t.Fatalf("minimized trail not persisted: %v", err)
	}

	// Re-reading the bundle now sees the minimized trail, and a second
	// replay verifies both trails.
	b2, err := mcfs.ReadBundle(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.MinTrail) != len(min) {
		t.Fatalf("reloaded minimized trail has %d ops, want %d", len(b2.MinTrail), len(min))
	}
	out2, err := b2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Reproduced {
		t.Fatal("full trail stopped reproducing after shrink")
	}
	if out2.MinReproduced == nil || !*out2.MinReproduced {
		t.Fatal("minimized trail does not reproduce")
	}
}

// TestAdversarialOpExtentIsAnError: a bundle is read back from disk, so a
// hand-edited write_file in bug.json's trail or in journal.jsonl — a
// terabyte size or offset, a negative size — must fail the replay with an
// error instead of allocating the extent (a fatal out-of-memory) or
// panicking in the target that executes it.
func TestAdversarialOpExtentIsAnError(t *testing.T) {
	bundleDir, _ := bundleFromBugRun(t)
	for _, tc := range []struct {
		name string
		edit func(*journal.OpRecord)
	}{
		{"terabyte size", func(r *journal.OpRecord) { r.Size = 1_000_000_000_000 }},
		{"terabyte offset", func(r *journal.OpRecord) { r.Off = 1_000_000_000_000 }},
		{"negative size", func(r *journal.OpRecord) { r.Size = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := mcfs.ReadBundle(bundleDir)
			if err != nil {
				t.Fatal(err)
			}
			// The trail in bug.json, beside an unedited config.json.
			dir := t.TempDir()
			bug := b.Bug
			bug.Trail = append([]journal.OpRecord(nil), bug.Trail...)
			tc.edit(&bug.Trail[firstWrite(t, bug.Trail)])
			for name, v := range map[string]any{mcfs.BundleConfigFile: b.Config, mcfs.BundleBugFile: bug} {
				data, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := mcfs.ReplayBundle(dir); err == nil || !strings.Contains(err.Error(), "op extent") {
				t.Errorf("ReplayBundle on the edited trail: %v, want an op-extent error", err)
			}

			// The journal, replayed as `mcfs replay` does.
			recs, err := b.JournalRecords()
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				if op := recs[i].Op; op != nil && op.Kind == "write_file" {
					edited := *op
					tc.edit(&edited)
					recs[i].Op = &edited
					break
				}
			}
			s, err := mcfs.NewSession(b.Config)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.ReplayJournal(recs); err == nil || !strings.Contains(err.Error(), "op extent") {
				t.Errorf("ReplayJournal on the edited journal: %v, want an op-extent error", err)
			}
		})
	}
}

// firstWrite returns the index of the trail's first write_file.
func firstWrite(t *testing.T, trail []journal.OpRecord) int {
	t.Helper()
	for i, r := range trail {
		if r.Kind == "write_file" {
			return i
		}
	}
	t.Fatal("trail has no write_file")
	return -1
}

// TestWriteBundleWithoutBug: a bug-free result — a run that died on the
// memory model, say — still gets a partial bundle (config and journal
// survive for diagnosis), just without bug.json.
func TestWriteBundleWithoutBug(t *testing.T) {
	dir := t.TempDir()
	if err := mcfs.WriteBundle(dir, mcfs.Options{}, mcfs.Result{}, "", nil); err != nil {
		t.Fatalf("bundling a bug-free result failed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bug.json")); !os.IsNotExist(err) {
		t.Fatalf("bug-free bundle wrote bug.json (stat err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "config.json")); err != nil {
		t.Fatalf("bug-free bundle missing config.json: %v", err)
	}
}

func TestReadBundleMissingDir(t *testing.T) {
	if _, err := mcfs.ReadBundle(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("reading a missing bundle succeeded")
	}
}

// TestMajorityVoteBugReplaysAndShrinks: trail replay steps through the
// engine's own step, so a bug only majority voting names (kind
// majority-vote, where the pairwise checks would say abstract-state)
// reproduces through every replay path — VerifyTrail, bundle replay,
// journal replay, and the ddmin shrink. The hand-written replay loop had
// forgotten the MajorityVote switch.
func TestMajorityVoteBugReplaysAndShrinks(t *testing.T) {
	opts := mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext4"},
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth:     3,
		MaxOps:       5000,
		MajorityVote: true,
	}
	bundleDir, res := bundleFromRun(t, opts)
	if kind := res.Bug.Discrepancy.Kind; kind != "majority-vote" {
		t.Fatalf("run found a %q bug, want majority-vote", kind)
	}

	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, same, err := s.VerifyTrail(res.Bug.Trail, nil, res.Bug.Discrepancy)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Errorf("VerifyTrail observed %v, want the run's majority-vote discrepancy", got)
	}

	out, err := mcfs.ReplayBundle(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced || out.Discrepancy.Kind != "majority-vote" {
		t.Errorf("bundle replay: reproduced=%v discrepancy=%v", out.Reproduced, out.Discrepancy)
	}
	min, stats, err := mcfs.ShrinkBundle(bundleDir)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if len(min) == 0 || len(min) > len(res.Bug.Trail) || !stats.Minimal {
		t.Errorf("shrunk %d ops to %d (%+v)", len(res.Bug.Trail), len(min), stats)
	}
	out, err = mcfs.ReplayBundle(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if out.MinReproduced == nil || !*out.MinReproduced {
		t.Error("minimized trail does not reproduce the majority-vote bug")
	}
}

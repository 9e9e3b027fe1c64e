// Flight-recorder integration: journal round-trip through a real
// exploration, deterministic replay, trail minimization, and concurrent
// swarm journaling (external test package via the mcfs facade, like
// mc_test.go).
package mc_test

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/mc"
	"mcfs/internal/obs/journal"
	"mcfs/internal/workload"
)

// holeBugOptions is the seeded-bug configuration every flight-recorder
// test explores: verifs2 forgets to zero the hole left by a write past
// EOF, the paper's §6 write-hole bug.
func holeBugOptions() mcfs.Options {
	return mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
	}
}

func runJournaled(t *testing.T, opts mcfs.Options, path string) mcfs.Result {
	t.Helper()
	jw, err := journal.Create(path, journal.Options{})
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
		t.Fatalf("engine error: %v", res.Err)
	}
	return res
}

func TestJournalRoundTripWithBug(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	res := runJournaled(t, holeBugOptions(), path)
	if res.Bug == nil {
		t.Fatalf("seeded bug not found in %d ops", res.Ops)
	}

	recs, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].T != journal.TypeMeta {
		t.Fatal("journal does not open with a meta record")
	}
	if recs[0].Meta.Version != journal.Version || recs[0].Meta.InitState == "" {
		t.Errorf("meta record incomplete: %+v", recs[0].Meta)
	}
	bug, worker := journal.FirstBug(recs)
	if bug == nil {
		t.Fatal("no bug record in the journal")
	}
	if worker != 0 {
		t.Errorf("single-engine run journaled as worker %d", worker)
	}
	if bug.Kind != res.Bug.Discrepancy.Kind || bug.OpsExecuted != res.Bug.OpsExecuted {
		t.Errorf("bug record %+v does not match result %+v", bug, res.Bug)
	}
	// The journaled trail must decode back to exactly the trail the
	// engine reported.
	trail, err := journal.DecodeTrail(bug.Trail)
	if err != nil {
		t.Fatal(err)
	}
	if len(trail) != len(res.Bug.Trail) {
		t.Fatalf("journaled trail length %d, reported %d", len(trail), len(res.Bug.Trail))
	}
	for i := range trail {
		if trail[i] != res.Bug.Trail[i] {
			t.Errorf("trail op %d: journaled %v, reported %v", i, trail[i], res.Bug.Trail[i])
		}
	}

	// Deterministic replay on a FRESH session: every errno and state
	// hash must reproduce, ending in the recorded bug.
	s2, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep, err := s2.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("replay diverged at step %d: %s", rep.DivergedAt, rep.Reason)
	}
	if !rep.BugReproduced {
		t.Fatal("replay did not reproduce the journaled bug")
	}
	if rep.Steps == 0 {
		t.Fatal("replay executed no steps")
	}
}

func TestJournalReplayCleanRun(t *testing.T) {
	opts := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   300,
	}
	path := filepath.Join(t.TempDir(), "clean.jsonl")
	res := runJournaled(t, opts, path)
	if res.Bug != nil {
		t.Fatalf("false positive: %v", res.Bug)
	}
	recs, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every op plus meta/done/backtracks: at least one record per op.
	if int64(len(recs)) <= res.Ops {
		t.Fatalf("%d records for %d ops", len(recs), res.Ops)
	}
	last := recs[len(recs)-1]
	if last.T != journal.TypeDone || last.Done.Ops != res.Ops {
		t.Errorf("journal not closed with matching done record: %+v", last)
	}

	s2, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep, err := s2.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("clean-run replay diverged at step %d: %s", rep.DivergedAt, rep.Reason)
	}
	if rep.BugReproduced {
		t.Fatal("clean-run replay claims a bug")
	}
	if int64(rep.Steps) != res.Ops {
		t.Errorf("replayed %d steps, run executed %d ops", rep.Steps, res.Ops)
	}
}

// TestJournalReplayNamesUnrecordedDiscrepancy replays a clean journal on
// targets that have since grown a bug: replay judges every op through
// the run's own step, so the divergence is the discrepancy itself, at
// the op that exposes it, not a bare state-hash mismatch.
func TestJournalReplayNamesUnrecordedDiscrepancy(t *testing.T) {
	clean := holeBugOptions()
	clean.Targets = []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}}
	path := filepath.Join(t.TempDir(), "clean.jsonl")
	if res := runJournaled(t, clean, path); res.Bug != nil {
		t.Fatalf("false positive: %v", res.Bug)
	}
	recs, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged {
		t.Fatal("replay on buggy targets did not diverge from the clean journal")
	}
	if rep.Bug == nil || rep.Bug.Kind != "abstract-state" || !strings.Contains(rep.Reason, `"abstract-state" discrepancy`) {
		t.Errorf("divergence does not name the discrepancy: bug %v, reason %q", rep.Bug, rep.Reason)
	}
	if rep.BugReproduced {
		t.Error("replay claims to reproduce a bug the journal never recorded")
	}
	var at *journal.Record
	for i := range recs {
		if recs[i].Seq == rep.DivergedAt {
			at = &recs[i]
		}
	}
	if at == nil || at.T != journal.TypeOp || at.Op == nil {
		t.Fatalf("diverged at seq %d, which is no op record: %+v", rep.DivergedAt, at)
	}
	// The hole bug needs a write past EOF: the first one the search order
	// reaches is the record the replay must stop at.
	if op, err := at.Op.Decode(); err != nil || op.Kind != workload.OpWriteFile || op.Path != "/f0" || op.Off != 1000 {
		t.Errorf("diverged at %v (%v), want the write_file(/f0, off=1000, ...) record", op, err)
	}
}

func TestMinimizeConvergesOnPaddedTrail(t *testing.T) {
	s, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	s.Close()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug == nil {
		t.Fatal("seeded bug not found")
	}

	// DFS trails are often already near-minimal; pad with operations on
	// unrelated paths so the minimizer provably has fat to trim.
	padding := []workload.Op{
		{Kind: workload.OpMkdir, Path: "/pad"},
		{Kind: workload.OpCreateFile, Path: "/pad/x"},
		{Kind: workload.OpWriteFile, Path: "/pad/x", Off: 0, Size: 8, Byte: 0x11},
	}
	padded := append(append([]workload.Op{}, padding...), res.Bug.Trail...)

	factory := func() (mc.Config, error) {
		fs, err := mcfs.NewSession(holeBugOptions())
		if err != nil {
			return mc.Config{}, err
		}
		return *fs.Config(), nil
	}
	want := &mcfs.Discrepancy{Kind: res.Bug.Discrepancy.Kind}
	min, stats, err := mc.Minimize(factory, padded, want, mc.MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min) >= len(padded) {
		t.Fatalf("minimizer removed nothing: %d -> %d ops", len(padded), len(min))
	}
	if stats.From != len(padded) || stats.To != len(min) {
		t.Errorf("stats %+v inconsistent with %d -> %d", stats, len(padded), len(min))
	}
	if !stats.Minimal {
		t.Errorf("budget of %d replays hit on a %d-op trail", mc.DefaultMaxReplays, len(padded))
	}
	for _, op := range min {
		if op.Path == "/pad" || op.Path == "/pad/x" {
			t.Errorf("padding op %v survived minimization", op)
		}
	}

	// The minimal trail must still reproduce on a fresh session.
	fs, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	_, same, err := fs.VerifyTrail(min, nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("minimized trail does not reproduce the bug")
	}
	t.Logf("minimized %d -> %d ops in %d replays", stats.From, stats.To, stats.Replays)
}

// TestMinimizeIsSoundAndOneMinimalOnRandomTrails is the law behind
// shrink, over random padding: the seeded bug's trail with pool ops
// inserted at random positions. For every padded trail that still
// reproduces, Minimize finishes (Minimal), its result reproduces the same
// discrepancy kind on a fresh session, and dropping any single op of the
// result stops it reproducing — checked here op by op, not through ddmin.
func TestMinimizeIsSoundAndOneMinimalOnRandomTrails(t *testing.T) {
	opts := holeBugOptions()
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	s.Close()
	if res.Err != nil || res.Bug == nil {
		t.Fatalf("seeded run: err=%v bug=%v", res.Err, res.Bug)
	}
	want := &mcfs.Discrepancy{Kind: res.Bug.Discrepancy.Kind}
	reproduces := func(trail []workload.Op) bool {
		t.Helper()
		fs, err := mcfs.NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		_, same, err := fs.VerifyTrail(trail, nil, want)
		if err != nil {
			t.Fatal(err)
		}
		return same
	}
	factory := func() (mc.Config, error) {
		fs, err := mcfs.NewSession(opts)
		if err != nil {
			return mc.Config{}, err
		}
		return *fs.Config(), nil
	}
	pool := workload.VeriFS1Pool().Enumerate()
	used := 0
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		padded := append([]workload.Op(nil), res.Bug.Trail...)
		for n := 2 + r.Intn(5); n > 0; n-- {
			at := r.Intn(len(padded) + 1)
			padded = append(padded[:at], append([]workload.Op{pool[r.Intn(len(pool))]}, padded[at:]...)...)
		}
		if !reproduces(padded) {
			t.Logf("seed %d: the padded trail no longer reproduces; skipped", seed)
			continue
		}
		used++
		shrunk, stats, err := mc.Minimize(factory, padded, want, mc.MinimizeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !stats.Minimal {
			t.Errorf("seed %d: Minimize stopped short of a 1-minimal trail (%+v)", seed, stats)
		}
		if !reproduces(shrunk) {
			t.Errorf("seed %d: the minimized trail %v does not reproduce %s", seed, shrunk, want.Kind)
		}
		for i := range shrunk {
			if less := append(append([]workload.Op(nil), shrunk[:i]...), shrunk[i+1:]...); reproduces(less) {
				t.Errorf("seed %d: the minimized trail %v still reproduces without op %d (%v)", seed, shrunk, i, shrunk[i])
			}
		}
		t.Logf("seed %d: %d -> %d ops in %d replays", seed, stats.From, stats.To, stats.Replays)
	}
	if used < 5 {
		t.Errorf("only %d of 10 padded trails reproduced; the law needs at least 5", used)
	}
}

func TestMinimizeRejectsNonReproducingTrail(t *testing.T) {
	factory := func() (mc.Config, error) {
		fs, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3,
		})
		if err != nil {
			return mc.Config{}, err
		}
		return *fs.Config(), nil
	}
	trail := []workload.Op{{Kind: workload.OpCreateFile, Path: "/f0"}}
	if _, _, err := mc.Minimize(factory, trail, nil, mc.MinimizeOptions{}); err == nil {
		t.Fatal("minimizing a non-reproducing trail succeeded")
	}
}

func TestSwarmJournaling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swarm.jsonl")
	jw, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	spec := holeBugOptions()
	spec.Workers, spec.ShareVisited, spec.Journal = workers, true, jw
	sr, err := mcfs.SwarmRun(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("swarm error: %v", sr.Err)
	}
	if sr.Bug == nil {
		t.Fatal("swarm did not find the seeded bug")
	}

	recs, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker that actually ran (peers canceled before starting
	// execute nothing and journal nothing) must have a meta-opened,
	// sequence-ordered slice of the shared journal.
	ids := journal.Workers(recs)
	if len(ids) == 0 {
		t.Fatal("empty swarm journal")
	}
	journaled := make(map[int]bool)
	for _, id := range ids {
		if id < 1 || id > workers {
			t.Errorf("unexpected worker id %d", id)
		}
		journaled[id] = true
		wr := journal.WorkerRecords(recs, id)
		if wr[0].T != journal.TypeMeta {
			t.Errorf("worker %d journal does not open with meta", id)
		}
		if got := wr[0].Meta.Seed; got != int64(id) {
			t.Errorf("worker %d journaled seed %d", id, got)
		}
		for i, rec := range wr {
			if rec.Seq != int64(i+1) {
				t.Fatalf("worker %d: record %d has seq %d — per-worker ordering lost", id, i, rec.Seq)
			}
		}
	}
	for i, r := range sr.Workers {
		if !journaled[i+1] && !(r.Canceled && r.Ops == 0) {
			t.Errorf("worker %d executed %d ops but journaled nothing", i+1, r.Ops)
		}
	}
	bug, bugWorker := journal.FirstBug(recs)
	if bug == nil {
		t.Fatal("no bug record in the swarm journal")
	}
	if bugWorker != sr.BugWorker+1 {
		t.Errorf("bug journaled by worker %d, result says %d", bugWorker, sr.BugWorker+1)
	}

	// The bug worker's slice of the shared journal replays on a fresh
	// single session.
	s, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Worker != bugWorker {
		t.Errorf("replay picked worker %d, want the bug worker %d", rep.Worker, bugWorker)
	}
	if rep.Diverged {
		t.Fatalf("swarm journal replay diverged at step %d: %s", rep.DivergedAt, rep.Reason)
	}
	if !rep.BugReproduced {
		t.Fatal("swarm journal replay did not reproduce the bug")
	}
}

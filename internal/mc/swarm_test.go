// Tests for the coordinated swarm subsystem: cancellation, the shared
// visited table, worker draining on factory errors, checkpoint-leak
// regression coverage, and resume accounting. Run with -race: the swarm
// is the only concurrent part of the engine.
package mc_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mcfs"
	"mcfs/internal/abstraction"
	"mcfs/internal/errno"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fuse"
	"mcfs/internal/kernel"
	"mcfs/internal/mc"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
	"mcfs/internal/tracker"
	"mcfs/internal/vfs"
)

// --- Cancel token ----------------------------------------------------------

func TestCancelToken(t *testing.T) {
	var nilCancel *mc.Cancel
	if nilCancel.Canceled() {
		t.Error("nil Cancel reports canceled")
	}
	c := mc.NewCancel()
	if c.Canceled() {
		t.Error("fresh Cancel reports canceled")
	}
	c.Cancel("first")
	c.Cancel("second")
	if !c.Canceled() {
		t.Error("fired Cancel not reporting canceled")
	}
	if got := c.Reason(); got != "first" {
		t.Errorf("Reason() = %q, want first-wins %q", got, "first")
	}
}

func TestCancelTokenConcurrent(t *testing.T) {
	c := mc.NewCancel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Cancel(fmt.Sprintf("worker %d", i))
		}(i)
	}
	wg.Wait()
	if !c.Canceled() || c.Reason() == "" {
		t.Errorf("Canceled=%v Reason=%q after concurrent fire", c.Canceled(), c.Reason())
	}
}

// --- Shared visited set ----------------------------------------------------

func TestSharedVisitedSemantics(t *testing.T) {
	sv := visited.NewSet(nil)
	var h abstraction.State
	h[0] = 0xaa

	novel, expand := sv.Visit(h, 2)
	if !novel || !expand {
		t.Errorf("first Visit = (%v, %v), want (true, true)", novel, expand)
	}
	novel, expand = sv.Visit(h, 2)
	if novel || expand {
		t.Errorf("same-depth revisit = (%v, %v), want (false, false)", novel, expand)
	}
	novel, expand = sv.Visit(h, 3)
	if novel || expand {
		t.Errorf("deeper revisit = (%v, %v), want (false, false)", novel, expand)
	}
	// The bounded-DFS re-expansion rule: reaching a known state at a
	// SHALLOWER depth means deeper successors may now be in bound.
	novel, expand = sv.Visit(h, 1)
	if novel || !expand {
		t.Errorf("shallower revisit = (%v, %v), want (false, true)", novel, expand)
	}
	if sv.Len() != 1 || sv.NovelCount() != 1 {
		t.Errorf("Len=%d NovelCount=%d, want 1/1", sv.Len(), sv.NovelCount())
	}
}

func TestSharedVisitedSeedDoesNotCountAsNovel(t *testing.T) {
	run := exploreClean(t, 2, 300, 0, nil)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	sv := visited.NewSet(nil)
	run.Resume.SeedInto(sv)
	if sv.Len() == 0 {
		t.Fatal("seeding recorded no states")
	}
	if sv.NovelCount() != 0 {
		t.Errorf("NovelCount = %d after seeding, want 0 (seeds are not discoveries)", sv.NovelCount())
	}
	// Seeding twice is idempotent.
	run.Resume.SeedInto(sv)
	if got := sv.Len(); got != run.Resume.UniqueStates() {
		t.Errorf("Len = %d after double seed, want %d", got, run.Resume.UniqueStates())
	}
}

func TestSharedVisitedConcurrent(t *testing.T) {
	sv := visited.NewSet(nil)
	var wg sync.WaitGroup
	var novelTotal int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := int64(0)
			for i := 0; i < 500; i++ {
				var h abstraction.State
				h[0] = byte(i)
				h[1] = byte(i >> 8)
				if novel, _ := sv.Visit(h, w%4); novel {
					n++
				}
			}
			mu.Lock()
			novelTotal += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if novelTotal != 500 {
		t.Errorf("total novel across racing workers = %d, want 500 (each state credited once)", novelTotal)
	}
	if sv.Len() != 500 || sv.NovelCount() != 500 {
		t.Errorf("Len=%d NovelCount=%d, want 500/500", sv.Len(), sv.NovelCount())
	}
}

// --- Coordinated swarm: cancellation ---------------------------------------

// TestSwarmFirstBugCancelsPeers is the tentpole regression: with a huge
// per-worker budget and a seeded bug, the first worker to find the bug
// must stop its peers promptly — canceled peers end far below budget
// instead of burning their full 100000 operations.
func TestSwarmFirstBugCancelsPeers(t *testing.T) {
	const budget = 100000
	sr, err := mcfs.SwarmRun(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   budget,
		Workers:  4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatalf("worker %d error: %v", sr.ErrWorker+1, sr.Err)
	}
	if sr.Bug == nil {
		t.Fatal("no swarm worker found the seeded bug")
	}
	if sr.BugWorker < 0 || sr.BugWorker >= len(sr.Workers) {
		t.Fatalf("BugWorker = %d out of range", sr.BugWorker)
	}
	if sr.Workers[sr.BugWorker].Bug == nil {
		t.Errorf("BugWorker %d has no bug in its own result", sr.BugWorker+1)
	}
	canceled := 0
	var sumOps int64
	for i, r := range sr.Workers {
		sumOps += r.Ops
		if i == sr.BugWorker {
			continue
		}
		if r.Canceled {
			canceled++
			if r.Ops >= budget {
				t.Errorf("canceled worker %d still ran %d ops (budget %d): cancellation not prompt", i+1, r.Ops, budget)
			}
		}
	}
	if canceled == 0 {
		t.Error("no peer was canceled; first-bug cancellation did not propagate")
	}
	if sr.Ops != sumOps {
		t.Errorf("merged Ops = %d, want sum of workers %d", sr.Ops, sumOps)
	}
}

// TestSwarmCallerCancel: an external token aborts a running swarm.
func TestSwarmCallerCancel(t *testing.T) {
	cancel := mcfs.NewCancel()
	cancel.Cancel("caller abort")
	sr, err := mcfs.SwarmRun(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   100000,
		Workers:  2,
		Cancel:   cancel,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sr.Workers {
		if r.Ops != 0 {
			t.Errorf("worker %d ran %d ops under a pre-fired cancel", i+1, r.Ops)
		}
	}
}

// --- Coordinated swarm: worker-leak fix ------------------------------------

// TestSwarmFactoryErrorDrainsWorkers is the satellite-1 regression: a
// factory error used to abandon already-started workers (goroutine
// leak + lost results). Now the error cancels and drains them.
func TestSwarmFactoryErrorDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("factory boom")
	_, err := mcfs.SwarmRun(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   100000,
		Workers:  4,
	}, func(worker int, _ *mcfs.Options) error {
		if worker == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the factory error", err)
	}
	// SwarmRun must not return before every worker goroutine exits.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; goroutine exits are what we wait on
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after factory error", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSwarmFactoryErrorNamesTheWorker: workers are numbered from 1
// wherever a user meets them — the cancel reason, the journal, the
// stream, the facade's own errors — so a failing factory is reported
// under the same number.
func TestSwarmFactoryErrorNamesTheWorker(t *testing.T) {
	boom := errors.New("factory boom")
	cancel := mc.NewCancel()
	_, err := mc.SwarmRun(mc.SwarmOptions{Workers: 1, Cancel: cancel},
		func(int64) (mc.Config, error) { return mc.Config{}, boom })
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "mc: swarm worker 1: ") {
		t.Errorf("err = %v, want the factory error of worker 1", err)
	}
	if got, want := cancel.Reason(), "worker 1 factory failed"; got != want {
		t.Errorf("cancel reason = %q, want %q", got, want)
	}
}

// --- Coordinated swarm: shared visited table -------------------------------

// TestSharedVisitedReducesDuplicates: the same swarm explores once with
// independent visited tables and once with the shared table; sharing
// must cut cross-worker duplicate states.
func TestSharedVisitedReducesDuplicates(t *testing.T) {
	run := func(share bool) mcfs.SwarmResult {
		sr, err := mcfs.SwarmRun(mcfs.Options{
			Targets:      []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth:     3,
			MaxOps:       400,
			Workers:      3,
			ShareVisited: share,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Err != nil {
			t.Fatalf("share=%v worker %d: %v", share, sr.ErrWorker+1, sr.Err)
		}
		if sr.Bug != nil {
			t.Fatalf("share=%v unexpected bug: %v", share, sr.Bug.Discrepancy)
		}
		return sr
	}
	indep := run(false)
	shared := run(true)

	if indep.DuplicateStates == 0 {
		t.Fatal("independent workers produced no duplicates; state space too small to test sharing")
	}
	if shared.DuplicateStates >= indep.DuplicateStates {
		t.Errorf("shared table did not reduce duplicates: shared=%d independent=%d",
			shared.DuplicateStates, indep.DuplicateStates)
	}
	if shared.GlobalUniqueStates == 0 || shared.Resume == nil {
		t.Errorf("shared swarm lost its merged visited knowledge: global=%d resume=%v",
			shared.GlobalUniqueStates, shared.Resume)
	}
	t.Logf("duplicates: independent=%d shared=%d (global unique: %d vs %d)",
		indep.DuplicateStates, shared.DuplicateStates,
		indep.GlobalUniqueStates, shared.GlobalUniqueStates)
}

// --- Checkpoint-leak fix ---------------------------------------------------

// leakTracker wraps a Tracker and counts live checkpoint images: each
// successful Checkpoint retains one, each Restore/Discard releases it.
// failAt > 0 makes the Nth Checkpoint call fail without retaining. It
// sees the Tracker interface only; assertNoCheckpointState
// (lockstep_test.go) asks the media and file systems underneath.
type leakTracker struct {
	tracker.Tracker
	mu     sync.Mutex
	live   map[uint64]bool
	calls  int
	failAt int
}

func newLeakTracker(inner tracker.Tracker, failAt int) *leakTracker {
	return &leakTracker{Tracker: inner, live: make(map[uint64]bool), failAt: failAt}
}

func (l *leakTracker) Checkpoint(key uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls++
	if l.failAt > 0 && l.calls >= l.failAt {
		return fmt.Errorf("leakTracker: injected checkpoint failure (call %d)", l.calls)
	}
	if err := l.Tracker.Checkpoint(key); err != nil {
		return err
	}
	l.live[key] = true
	return nil
}

func (l *leakTracker) Restore(key uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Tracker.Restore(key); err != nil {
		return err
	}
	delete(l.live, key)
	return nil
}

func (l *leakTracker) Discard(key uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Tracker.Discard(key)
	delete(l.live, key)
}

func (l *leakTracker) retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}

// TestCheckpointFailureRetainsNoImages is the satellite-2 regression: a
// partial Checkpoint failure (tracker B fails after tracker A saved its
// image) used to strand tracker A's image forever. The engine must
// Discard every image it will never Restore — including the outer DFS
// frames unwound by the error.
func TestCheckpointFailureRetainsNoImages(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := s.Config()
	// Tracker 0 records leaks; tracker 1 fails its 7th checkpoint, deep
	// enough that several outer frames hold live images at failure time.
	a := newLeakTracker(cfg.Trackers[0], 0)
	b := newLeakTracker(cfg.Trackers[1], 7)
	cfg.Trackers = []tracker.Tracker{a, b}

	res := s.Run()
	if res.Err == nil {
		t.Fatal("run succeeded despite the injected checkpoint failure")
	}
	if got := a.retained(); got != 0 {
		t.Errorf("tracker A retains %d checkpoint images after the failed run, want 0", got)
	}
	if got := b.retained(); got != 0 {
		t.Errorf("tracker B retains %d checkpoint images after the failed run, want 0", got)
	}
	assertNoCheckpointState(t, s)
}

// TestCleanRunRetainsNoImages: the Discard plumbing must also leave
// nothing behind on the happy path (every checkpoint is restored).
func TestCleanRunRetainsNoImages(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := s.Config()
	a := newLeakTracker(cfg.Trackers[0], 0)
	b := newLeakTracker(cfg.Trackers[1], 0)
	cfg.Trackers = []tracker.Tracker{a, b}
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if a.retained() != 0 || b.retained() != 0 {
		t.Errorf("clean run retains images: A=%d B=%d, want 0/0", a.retained(), b.retained())
	}
	assertNoCheckpointState(t, s)
}

// --- Resume accounting fix -------------------------------------------------

// TestResumeRoundTripUniqueStates is the satellite-3 regression: resuming
// from a COMPLETE run must report zero new unique states — the initial
// state was double-counted before (it is already in the resume set).
func TestResumeRoundTripUniqueStates(t *testing.T) {
	first := exploreClean(t, 2, 0, 0, nil)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Resume == nil || first.Resume.UniqueStates() == 0 {
		t.Fatal("first run exported no resume state")
	}

	second := exploreClean(t, 2, 0, 0, first.Resume)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if second.UniqueStates != 0 {
		t.Errorf("resumed complete run discovered %d unique states, want 0 (initial state double-counted?)",
			second.UniqueStates)
	}
	if second.Revisits == 0 {
		t.Error("resumed run recorded no revisits; the resume set was ignored")
	}
	// Combined knowledge must not exceed the full run's.
	if second.Resume != nil && second.Resume.UniqueStates() != first.Resume.UniqueStates() {
		t.Errorf("resume round-trip changed the state set: %d -> %d",
			first.Resume.UniqueStates(), second.Resume.UniqueStates())
	}
}

// TestSwarmUnionEqualsSolo is the swarm-union law: a bounded space run
// to exhaustion holds the same states whoever explores it, so the state
// set a shared-set swarm exports equals the solo run's — which worker
// won which state is the scheduler's choice, what was found is not.
func TestSwarmUnionEqualsSolo(t *testing.T) {
	const exhaust = 1 << 30
	solo := exploreClean(t, 3, exhaust, 1, nil)
	if solo.Err != nil || solo.Bug != nil {
		t.Fatalf("solo run: err %v, bug %v", solo.Err, solo.Bug)
	}
	if solo.UniqueStates == 0 || solo.Resume.UniqueStates() != solo.UniqueStates {
		t.Fatalf("solo exported %d states for %d discoveries", solo.Resume.UniqueStates(), solo.UniqueStates)
	}
	for _, workers := range []int{2, 4} {
		sr, err := mcfs.SwarmRun(mcfs.Options{
			Targets:      []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth:     3,
			MaxOps:       exhaust,
			Workers:      workers,
			ShareVisited: true,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Err != nil || sr.Bug != nil || sr.ResumeErr != nil {
			t.Fatalf("%d workers: err %v, bug %v, resume err %v", workers, sr.Err, sr.Bug, sr.ResumeErr)
		}
		if !slices.Equal(sr.Resume.States, solo.Resume.States) {
			t.Errorf("%d workers exported %d states, the solo run %d: not the same set",
				workers, sr.Resume.UniqueStates(), solo.Resume.UniqueStates())
		}
		if sr.GlobalUniqueStates != solo.UniqueStates {
			t.Errorf("%d workers discovered %d states, the solo run %d",
				workers, sr.GlobalUniqueStates, solo.UniqueStates)
		}
	}
}

// exploreClean runs the clean verifs1-vs-verifs2 pair once.
func exploreClean(t *testing.T, depth int, maxOps int64, seed int64, resume *mcfs.ResumeState) mcfs.Result {
	t.Helper()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: depth,
		MaxOps:   maxOps,
		Seed:     seed,
		Resume:   resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Run()
}

// --- Benchmark: shared vs independent swarm --------------------------------

func benchmarkSwarm(b *testing.B, share bool) {
	var dup, distinct int64
	for i := 0; i < b.N; i++ {
		sr, err := mcfs.SwarmRun(mcfs.Options{
			Targets:      []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth:     3,
			MaxOps:       500,
			Workers:      4,
			ShareVisited: share,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sr.Err != nil {
			b.Fatal(sr.Err)
		}
		dup += sr.DuplicateStates
		distinct += sr.GlobalUniqueStates
	}
	b.ReportMetric(float64(dup)/float64(b.N), "dup-states/op")
	b.ReportMetric(float64(distinct)/float64(b.N), "distinct-states/op")
}

func BenchmarkSwarmIndependent(b *testing.B) { benchmarkSwarm(b, false) }
func BenchmarkSwarmShared(b *testing.B)      { benchmarkSwarm(b, true) }

// --- Shared visited-table memory accounting --------------------------------

func TestSharedVisitedChargesAttachedModels(t *testing.T) {
	sv := visited.NewSet(nil)
	clk := simclock.New()
	cfg := memmodel.DefaultConfig()
	m1 := memmodel.New(cfg, clk)

	var h1, h2 abstraction.State
	h1[0], h2[0] = 0x01, 0x02
	sv.Visit(h1, 1) // discovered before the model watches: counted all the same

	m1.Watch(sv)
	if got := m1.Stats().SharedVisitedBytes; got != memmodel.SharedVisitedEntryBytes {
		t.Errorf("the watching model does not see the existing entry: %d bytes", got)
	}

	// A second model watches, then a peer discovers a new state: both
	// models see it — one table, every worker's RAM.
	m2 := memmodel.New(cfg, clk)
	m2.Watch(sv)
	sv.Visit(h2, 1)
	for i, m := range []*memmodel.Model{m1, m2} {
		if got := m.Stats().SharedVisitedBytes; got != 2*memmodel.SharedVisitedEntryBytes {
			t.Errorf("model %d: %d bytes, want %d", i+1, got, 2*memmodel.SharedVisitedEntryBytes)
		}
	}

	// Revisits grow nothing.
	sv.Visit(h2, 2)
	if got := m1.Stats().SharedVisitedBytes; got != 2*memmodel.SharedVisitedEntryBytes {
		t.Errorf("revisit charged the table: %d bytes", got)
	}
}

func TestSwarmSharedTableChargedToSessionModels(t *testing.T) {
	memCfg := mcfs.DefaultMemoryConfig()
	var mu sync.Mutex
	var sessions []*mcfs.Session
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	sr, err := mc.SwarmRun(mc.SwarmOptions{Workers: 2, ShareVisited: true},
		func(seed int64) (mc.Config, error) {
			s, err := mcfs.NewSession(mcfs.Options{
				Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
				MaxDepth: 2,
				MaxOps:   300,
				Seed:     seed,
				Memory:   &memCfg,
			})
			if err != nil {
				return mc.Config{}, err
			}
			mu.Lock()
			sessions = append(sessions, s)
			mu.Unlock()
			return *s.Config(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	if sr.GlobalUniqueStates == 0 {
		t.Fatal("swarm discovered nothing")
	}
	want := sr.GlobalUniqueStates * memmodel.SharedVisitedEntryBytes
	mu.Lock()
	defer mu.Unlock()
	for i, s := range sessions {
		st := s.MemoryStats()
		if st.SharedVisitedBytes != want {
			t.Errorf("session %d: SharedVisitedBytes = %d, want %d (= %d states x %d bytes)",
				i, st.SharedVisitedBytes, want, sr.GlobalUniqueStates, memmodel.SharedVisitedEntryBytes)
		}
	}
}

// --- Coordinated swarm: worker panic isolation ------------------------------

// panicTracker panics on its Nth PreOp call — simulating a file system
// under test blowing up mid-operation.
type panicTracker struct {
	tracker.Tracker
	mu      sync.Mutex
	calls   int
	panicAt int
}

func (p *panicTracker) PreOp() error {
	p.mu.Lock()
	p.calls++
	n := p.calls
	p.mu.Unlock()
	if n >= p.panicAt {
		panic(fmt.Sprintf("panicTracker: injected panic (call %d)", n))
	}
	return p.Tracker.PreOp()
}

// panicOnWrite is a VeriFS2 that panics on its Nth Write: the file system
// under test blowing up inside its own code, behind the FUSE transport.
type panicOnWrite struct {
	*verifs2.FS
	writes, panicAt int
}

func (p *panicOnWrite) Write(ino vfs.Ino, off int64, data []byte) (int, errno.Errno) {
	if p.writes++; p.writes >= p.panicAt {
		panic(fmt.Sprintf("panicOnWrite: injected panic (write %d)", p.writes))
	}
	return p.FS.Write(ino, off, data)
}

// panicInjectors are the two places a target can blow up: in the tracker
// driving it, or inside the file system itself — which, for VeriFS, is
// the far side of a FUSE round trip.
var panicInjectors = []struct {
	name string
	// depth1Ops and depth1At put the panic one level below a committed
	// create in a one-file pool (TestPanicProducesPartialTrail): the
	// tracker's second PreOp when create is the only op, VeriFS2's first
	// Write — which no write_file reaches before the file exists.
	depth1Ops []mcfs.OpKind
	depth1At  int
	inject    func(t *testing.T, cfg *mc.Config, at int)
}{
	{"tracker", []mcfs.OpKind{mcfs.OpCreateFile}, 2, func(_ *testing.T, cfg *mc.Config, at int) {
		cfg.Trackers = append([]tracker.Tracker(nil), cfg.Trackers...)
		cfg.Trackers[0] = &panicTracker{Tracker: cfg.Trackers[0], panicAt: at}
	}},
	{"verifs-over-fuse", []mcfs.OpKind{mcfs.OpCreateFile, mcfs.OpWriteFile}, 1, func(t *testing.T, cfg *mc.Config, at int) {
		k, point := cfg.Kernel, cfg.Checker.Targets()[1].MountPoint
		if err := k.Unmount(point); err != nil {
			t.Fatal(err)
		}
		srv := fuse.NewServer(&panicOnWrite{FS: verifs2.New(k.Clock()), panicAt: at}, fuse.ServerOptions{})
		if err := k.Mount(point, kernel.FilesystemSpec{
			Type:    "verifs2",
			Mounter: func() (vfs.FS, error) { return fuse.NewClient(srv, k.Clock()), nil },
		}, kernel.MountOptions{}); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestSwarmWorkerPanicIsolated: a panicking target must not kill the
// swarm process. The panicking worker ends with a failed Result carrying
// a *mc.PanicError (panic value + partial trail), its peers are canceled
// promptly, and no goroutine leaks.
func TestSwarmWorkerPanicIsolated(t *testing.T) {
	for _, inj := range panicInjectors {
		t.Run(inj.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sr, err := mc.SwarmRun(mc.SwarmOptions{Workers: 2}, func(seed int64) (mc.Config, error) {
				s, err := mcfs.NewSession(mcfs.Options{
					Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
					MaxDepth: 3,
					MaxOps:   500000, // peers run long unless canceled
					Seed:     seed,
				})
				if err != nil {
					return mc.Config{}, err
				}
				cfg := *s.Config()
				if seed == 1 {
					inj.inject(t, &cfg, 5)
				}
				return cfg, nil
			})
			if err != nil {
				t.Fatalf("SwarmRun: %v", err)
			}
			if sr.Err == nil {
				t.Fatal("swarm reports no error despite a panicking worker")
			}
			var pe *mc.PanicError
			if !errors.As(sr.Err, &pe) {
				t.Fatalf("swarm error = %T %v, want *mc.PanicError", sr.Err, sr.Err)
			}
			if pe.Stack == "" {
				t.Error("PanicError carries no stack")
			}
			if sr.ErrWorker != 0 {
				t.Errorf("ErrWorker = %d, want 0 (seed 1)", sr.ErrWorker)
			}
			if peer := sr.Workers[1]; !peer.Canceled {
				t.Errorf("peer ran %d ops to completion, want it canceled", peer.Ops)
			}
			// No worker goroutines may outlive SwarmRun, and the sessions
			// (never closed) hold none of their own.
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= before+1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after panicking worker", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestPanicProducesPartialTrail pins the PanicError contract at the
// engine level with a deterministic crash site: a one-file pool whose
// DFS descends on the create (EEXIST-prunes it one level down) and
// panics there — depth 1, one op on the trail. The partial trail and the
// mc.panics metric must both survive the recover.
func TestPanicProducesPartialTrail(t *testing.T) {
	for _, inj := range panicInjectors {
		t.Run(inj.name, func(t *testing.T) {
			hub := obs.New()
			s, err := mcfs.NewSession(mcfs.Options{
				Targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
				Pool: &mcfs.Pool{
					Files:        []string{"/f0"},
					WriteOffsets: []int64{0},
					WriteSizes:   []int64{1},
					Ops:          inj.depth1Ops,
				},
				MaxDepth: 3,
				Obs:      hub,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := *s.Config()
			inj.inject(t, &cfg, inj.depth1At)

			res := mc.Run(cfg)
			var pe *mc.PanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("Run error = %T %v, want *mc.PanicError", res.Err, res.Err)
			}
			if len(pe.Trail) != 1 || pe.Trail[0].Kind != mcfs.OpCreateFile {
				t.Errorf("partial trail = %v, want the one committed create", pe.Trail)
			}
			if got := hub.Snapshot().Counters[obs.MetricPanics]; got != 1 {
				t.Errorf("mc.panics = %d, want 1", got)
			}
		})
	}
}

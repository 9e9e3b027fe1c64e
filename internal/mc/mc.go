// Package mc is the model-checking engine at the heart of MCFS — the
// stand-in for Spin in the paper's prototype (§2, §4).
//
// The engine performs explicit-state depth-first search over bounded
// operation sequences. Each step nondeterministically picks one
// fully-parameterized operation from the workload pool (one entry of the
// Promela do..od loop), executes it on every file system under test,
// and abstracts each once (Algorithm 1): that one walk feeds both the
// integrity checks and the combined abstract state that keys the
// visited table. A state whose abstract hash was seen before is pruned —
// Spin's visited-state matching with c_track'd abstract states (§3.3) —
// otherwise the search descends. Backtracking restores concrete states
// through the configured trackers (remount for kernel file systems,
// ioctl checkpoint/restore for VeriFS, §5).
//
// On any discrepancy the engine stops and reports the precise operation
// trail, matching the paper's reproducible bug reports; VerifyTrail
// re-runs a trail from a fresh state to confirm it. SwarmRun (swarm.go) runs
// several diversified engines as a coordinated parallel swarm: a shared
// cancellation token stops every worker at the first bug, and an
// optional shared visited set prunes states peers already expanded.
//
// Every path through the package is the same machine: engine.step is
// the only code that executes and judges an operation, engine.dfs the
// only checkpoint/visit/descend/restore loop. What varies sits behind
// two narrow values — the source, which answers "which op next" and
// "descend?" from a search order and a visited.Set (Run) or from a
// journal (ReplayJournal), and the probe (probe.go), which feeds every
// instrumentation plane from what the loop reports.
package mc

import (
	"fmt"
	"runtime/debug"
	"time"

	"mcfs/internal/abstraction"
	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
	"mcfs/internal/simclock"
	"mcfs/internal/tracker"
	"mcfs/internal/workload"
)

// Config parameterizes one exploration.
type Config struct {
	// Kernel hosts all mounted targets.
	Kernel *kernel.Kernel
	// Checker compares the targets (its Targets() order matches
	// Trackers).
	Checker *checker.Checker
	// Trackers capture/restore state, one per target, same order as
	// Checker.Targets().
	Trackers []tracker.Tracker
	// Pool is the bounded operation/parameter space.
	Pool workload.Pool
	// MaxDepth bounds the operation-sequence length.
	MaxDepth int
	// MaxOps stops exploration after this many executed operations
	// (0 = unlimited).
	MaxOps int64
	// MaxStates stops after this many unique states (0 = unlimited).
	MaxStates int64
	// Seed diversifies the operation ordering (swarm verification).
	Seed int64
	// Mem, when set, charges state-store memory costs (swap) to the
	// virtual clock.
	Mem *memmodel.Model
	// EqualizeFreeSpace applies the §3.4 capacity workaround before
	// exploring.
	EqualizeFreeSpace bool
	// MajorityVote enables the §7 majority-voting checks: with three or
	// more targets, the deviating minority is identified instead of
	// halting at the first pairwise mismatch.
	MajorityVote bool
	// Resume seeds the visited table from an earlier run's Result.Resume,
	// so exploration continues where the interrupted run left off (§7).
	Resume *ResumeState
	// Obs, when set, receives engine metrics (ops, visited-table
	// hits/misses, DFS depth), per-operation cross-layer spans,
	// phase-level time attribution (checkpoint, execute, verify,
	// restore, hash, fsck, remount, journal, oracle) and per-N-ops
	// state-space telemetry (novelty decay, frontier depth, duplicate
	// rate, crash points/sec). All instrumentation is nil-safe: a nil
	// Obs costs one branch per phase boundary and nothing else.
	Obs *obs.Hub
	// Cancel, when set, is polled between operations: once the token
	// fires (a swarm peer found a bug or failed, or the caller aborted)
	// the engine stops promptly and returns a partial Result with
	// Canceled set. The engine fires the token itself when it finds a
	// bug, so coordinated peers stop without waiting for Run to return.
	Cancel *Cancel
	// Visited, when set, is the visited-state set to explore against:
	// one shared across swarm workers (states any worker has expanded are
	// pruned swarm-wide, and UniqueStates counts only the states this
	// worker was the first to discover), or one the caller built on a
	// reduced-fidelity backend or under a memory governor. Its owner
	// exports the resume knowledge (ExportResume; Result.Resume stays
	// nil). When nil, Run explores against a private exact set: a solo
	// run is a one-worker set. Either way Mem watches the set for its
	// footprint.
	Visited *visited.Set
	// Journal, when set, is the flight recorder: every operation the
	// engine explores (with per-target errnos, the abstract state hash
	// reached, and the visited-table decision), every backtrack, and any
	// bug found are appended as journal records, replayable with
	// ReplayJournal. Nil-safe: a nil recorder costs one branch per op.
	Journal *journal.Recorder
	// Crash, when set, enables crash-consistency exploration: before
	// each operation is stepped normally, its write window is probed on
	// every crash plane — the op runs once in a fault window, where every
	// write that persists is a crash point, power loss is simulated with
	// the media as it stood right after each (the pre-op state plus a
	// prefix of the write log), and the recovered state is checked
	// against the prefix-consistency oracle (crash.go).
	Crash *CrashConfig
	// Stream, when set, receives live exploration events (steps,
	// backtracks, crash verdicts, worker lifecycle, bugs) stamped with
	// the session's virtual time. Nil-safe: a nil bus costs one branch
	// per emit site and nothing else.
	Stream *stream.Bus
	// StreamWorker identifies this engine on the stream (0 for a single
	// engine; SwarmRun assigns 1..N).
	StreamWorker int
}

// BugReport is a discrepancy plus the trail that produced it.
type BugReport struct {
	// Discrepancy describes the behavioral difference.
	Discrepancy *checker.Discrepancy
	// Trail is the operation sequence from the initial state, the last
	// entry being the operation that exposed the discrepancy.
	Trail []workload.Op
	// OpsExecuted counts operations executed up to detection.
	OpsExecuted int64
	// TrailSpans is the cross-layer span trace of the trail: one
	// LayerMC span per trail operation, with kernel/fs/tracker/checker
	// child spans. Populated only when Config.Obs was set.
	TrailSpans []obs.Span
	// Crash, when set, marks a crash-consistency bug: the trail's final
	// operation must be crash-tested at the spec'd target and write
	// index (VerifyTrail with the spec) instead of executed normally.
	Crash *journal.CrashSpec
}

// Error renders the report.
func (b *BugReport) Error() string {
	return fmt.Sprintf("%v\ntrail (%d ops executed):\n%s",
		b.Discrepancy, b.OpsExecuted, workload.TrailString(b.Trail))
}

// Result summarizes one exploration.
type Result struct {
	// Ops is the number of operations executed.
	Ops int64
	// UniqueStates is the number of distinct abstract states visited.
	UniqueStates int64
	// Revisits counts prunes due to visited-state matching.
	Revisits int64
	// Bug is non-nil if a discrepancy was found.
	Bug *BugReport
	// Elapsed is virtual time spent.
	Elapsed time.Duration
	// Rate is operations per virtual second.
	Rate float64
	// Err reports an engine failure (tracker errors etc.), not a bug.
	Err error
	// Canceled reports that the run was stopped early by its
	// cancellation token (Config.Cancel) rather than by its own budget,
	// bug, or exhaustion. The counters describe the partial run.
	Canceled bool
	// Coverage reports how often each operation kind executed and which
	// errnos it produced — the operation-level answer to the paper's §7
	// "track code coverage while model-checking".
	Coverage Coverage
	// Resume carries the exploration's visited-state knowledge so a
	// later run can continue after an interruption (§7 future work).
	Resume *ResumeState
	// Crash counts crash-exploration work (zero unless Config.Crash was
	// set): probes, points tested, recoveries verified, faults injected.
	Crash CrashStats
	// CrashHeatmap aggregates this run's crash-point verdicts by
	// (window op, write index). Nil unless Config.Crash was set.
	CrashHeatmap *stream.Heatmap
	// Fidelity is the visited table's matching precision at the end of
	// the run: exact unless a memory governor degraded the table
	// (compact or bitstate) to keep the run alive under its budget.
	Fidelity visited.Fidelity
	// OmissionProb is the estimated probability that the run wrongly
	// matched at least one state pair and omitted part of the space —
	// Spin's bitstate/compaction honesty number. Zero at exact
	// fidelity.
	OmissionProb float64
	// ResumeErr explains a missing Resume: a reduced-fidelity table
	// refuses export (visited.ErrNoExport) rather than emitting a
	// silently partial resume set.
	ResumeErr error
}

// OOMError finalizes a run whose memory model exhausted RAM and swap
// with no governor able to relieve it. Unlike a bare
// memmodel.ErrOutOfMemory, it reaches the caller inside a structured
// Result: the journal's done record, the final stream event, and any
// bundle are all still emitted, and the partial counters survive.
type OOMError struct {
	// Ops and UniqueStates describe the partial run at the point the
	// store refused.
	Ops          int64
	UniqueStates int64
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("mc: out of memory after %d ops / %d unique states (state store exhausted RAM and swap; set a budget with a visited-set governor to degrade instead)",
		e.Ops, e.UniqueStates)
}

// Unwrap lets errors.Is find the underlying memmodel condition.
func (e *OOMError) Unwrap() error { return memmodel.ErrOutOfMemory{} }

// Coverage aggregates operation and outcome counts for one run.
type Coverage struct {
	// ByOp counts executions per operation kind name.
	ByOp map[string]int64
	// ByErrno counts outcomes per errno name across all targets.
	ByErrno map[string]int64
	// ByOpErrno counts outcomes per (operation kind, errno) pair —
	// which op produced which errno, not just the two marginals.
	ByOpErrno map[string]map[string]int64
}

// NewCoverage returns an empty Coverage, ready to count a run or to
// Merge other runs' coverage into (aggregating swarm workers).
func NewCoverage() Coverage {
	return Coverage{
		ByOp:      make(map[string]int64),
		ByErrno:   make(map[string]int64),
		ByOpErrno: make(map[string]map[string]int64),
	}
}

// Pair returns how often op produced errno.
func (c Coverage) Pair(op, errName string) int64 {
	return c.ByOpErrno[op][errName]
}

// Merge folds other's counts into c (aggregating swarm workers).
func (c Coverage) Merge(other Coverage) {
	for op, n := range other.ByOp {
		c.ByOp[op] += n
	}
	for e, n := range other.ByErrno {
		c.ByErrno[e] += n
	}
	for op, m := range other.ByOpErrno {
		dst := c.ByOpErrno[op]
		if dst == nil {
			dst = make(map[string]int64, len(m))
			c.ByOpErrno[op] = dst
		}
		for e, n := range m {
			dst[e] += n
		}
	}
}

// ErrorPathRatio reports the fraction of observed outcomes that were
// errors — the invalid sequences §2 considers critical to exercise.
func (c Coverage) ErrorPathRatio() float64 {
	var total, errs int64
	for name, n := range c.ByErrno {
		total += n
		if name != "OK" {
			errs += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(errs) / float64(total)
}

// ResumeState is the serializable knowledge of a past exploration: the
// visited abstract states and the depths they were expanded at. Feeding
// it to a new run (Config.Resume) prevents re-exploring known states —
// the §7 "resume the model-checking process if an interruption occurs".
type ResumeState struct {
	States []abstraction.State
	Depths []int
}

// UniqueStates reports how many states the resume set carries. Safe on a
// nil receiver (an empty set).
func (r *ResumeState) UniqueStates() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.States))
}

// SeedInto preloads set with the resume knowledge. Seeded states are
// prior knowledge, not discoveries: they are pruned like any visited
// state but never counted as novel. Seeding the same state twice keeps
// the shallowest depth. Safe on a nil receiver.
func (r *ResumeState) SeedInto(set *visited.Set) {
	if r == nil {
		return
	}
	for i, st := range r.States {
		depth := 0
		if i < len(r.Depths) {
			depth = r.Depths[i]
		}
		set.Seed(st, depth)
	}
}

// ExportResume snapshots set (in state order) so a later run or swarm
// can continue where this one left off. A reduced-fidelity backend has
// discarded the full state keys and returns visited.ErrNoExport instead
// of a silently partial set.
func ExportResume(set *visited.Set) (*ResumeState, error) {
	entries, err := set.Export()
	if err != nil {
		return nil, err
	}
	r := &ResumeState{
		States: make([]abstraction.State, len(entries)),
		Depths: make([]int, len(entries)),
	}
	for i, en := range entries {
		r.States[i], r.Depths[i] = en.State, en.Depth
	}
	return r, nil
}

// source answers the explore loop's nondeterministic questions: from a
// seeded search order and a visited set (search), or from a journal's
// records (script, replay.go). An error aborts the loop like an engine
// failure.
type source interface {
	// next answers "which op is explored i-th from a state at this
	// depth" (ok false: the level is done).
	next(depth, i int) (op workload.Op, ok bool, err error)
	// crash crash-tests op's write window before it is stepped — on the
	// planes that have not seen (state, op), or at the recorded points.
	// A probe that finds an inconsistent recovery reports the bug, which
	// skips the step.
	crash(e *engine, depth int, op workload.Op) error
	// visit answers "descend?" for the state h a step reached at depth
	// with results; depth 0 (nil results) is the initial state.
	visit(depth int, results []checker.OpResult, h abstraction.State) (novel, expand bool, err error)
}

// search is the exploring source: a seed- and depth-diversified op
// order, pruned through the visited set.
type search struct {
	ops  []workload.Op
	seed int64
	// order caches each depth's permutation of ops — a function of
	// (seed, depth) alone, so every frame at a depth walks the same one.
	order [][]int
	// set records each abstract state with the shallowest depth it was
	// expanded at. Depth-bounded DFS must re-expand a state reached
	// shallower than before, or successors reachable only within the
	// remaining budget are silently missed (Spin handles bounded DFS
	// the same way).
	set *visited.Set
	// crashSeen dedups crash probes: one per (state, op, plane).
	crashSeen map[crashKey]bool
}

func (s *search) next(depth, i int) (workload.Op, bool, error) {
	if i >= len(s.ops) {
		return workload.Op{}, false, nil
	}
	for len(s.order) <= depth {
		s.order = append(s.order, shuffled(len(s.ops), s.seed, len(s.order)))
	}
	return s.ops[s.order[depth][i]], true, nil
}

func (s *search) visit(depth int, _ []checker.OpResult, h abstraction.State) (novel, expand bool, err error) {
	novel, expand = s.set.Visit(h, depth)
	return novel, expand, nil
}

// shuffled returns the indices 0..n-1 in a seed- and depth-diversified
// order (seed 0: the deterministic baseline order).
func shuffled(n int, seed int64, depth int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if seed == 0 {
		return idx
	}
	r := uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03 + uint64(depth)*0xBF58476D1CE4E5B9
	for i := len(idx) - 1; i > 0; i-- {
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		j := int((r * 0x2545F4914F6CDD1D >> 33) % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

type engine struct {
	cfg   Config
	src   source
	probe *probe // nil when no instrumentation plane is attached

	// set is the visited set a search explores against (nil under a
	// script), watched by Mem. owned: Run built it, so Run exports it.
	set   *visited.Set
	owned bool

	trail   []workload.Op
	nextKey uint64
	// results is the per-target outcome of the most recent step, errnos
	// their errno names (one buffer each, rewritten by every step). reads
	// are the targets' read_file buffers, one each: a result's Data is
	// its target's buffer, which the target's next read overwrites.
	results []checker.OpResult
	errnos  []string
	reads   [][]byte
	// ops holds what the engine derives from each distinct op it runs,
	// once per run; ops come from the pool or a trail, which bound it.
	// fills are the write buffers the memos share, one per (size, byte).
	ops   map[workload.Op]*opMemo
	fills [][]byte

	// res is the Result under construction: the loop counts straight
	// into it (CrashHeatmap is non-nil exactly when Config.Crash is set
	// — the heatmap needs no bus).
	res   Result
	oomed bool // memory model refused a store, no relief possible

	// retained is the concrete-state bytes stored for visited-state
	// matching against an exact set — released in one step when
	// the governor downgrades it (reduced backends retain no concrete
	// states; that release is the degradation's memory win).
	retained int64

	// curHash is the abstract hash of the CURRENT concrete state (the
	// state every dfs iteration explores from); crash probes key their
	// dedup on it.
	curHash abstraction.State

	// crashRegions is the crash oracle's region scratch (crash.go);
	// crashPts and crashMemo are a probe's crash points and verdict memo,
	// rebuilt in place by every probe.
	crashRegions crashRegions
	crashPts     []int
	crashMemo    crashMemo
	// crashWalk and crashRecs are the session flow's metadata walk
	// memory (metaHash), reused by every walk of every probe.
	crashWalk *abstraction.Memo
	crashRecs []abstraction.Record
}

func newEngine(cfg Config) *engine {
	// Every content the run's walks hash, MD5'd once: the engine's own
	// memo, gone with the engine (abstraction.Memo).
	cfg.Checker = cfg.Checker.WithMemo(abstraction.NewMemo())
	n := len(cfg.Checker.Targets())
	e := &engine{
		cfg:     cfg,
		res:     Result{Coverage: NewCoverage()},
		results: make([]checker.OpResult, 0, n),
		errnos:  make([]string, 0, n),
		reads:   make([][]byte, n),
	}
	e.probe = newProbe(&e.cfg)
	if cfg.Crash != nil {
		e.res.CrashHeatmap = stream.NewHeatmap()
		e.crashWalk = abstraction.NewMemo()
	}
	return e
}

// opMemo is what the engine derives from one op: its operands under each
// mount point it ran at, a write's bytes, and its crash heatmap row label.
type opMemo struct {
	at    []opAt
	data  []byte
	label string
}

type opAt struct {
	mount string
	paths workload.Paths
}

// memoOf returns op's memo, made on op's first run.
func (e *engine) memoOf(op workload.Op) *opMemo {
	m := e.ops[op]
	if m == nil {
		if e.ops == nil {
			e.ops = make(map[workload.Op]*opMemo)
		}
		m = &opMemo{data: e.fill(op)}
		e.ops[op] = m
	}
	return m
}

// fill returns a write op's bytes (workload.Fill), built on the first
// write of their size and byte and shared by every write of the same:
// no target keeps or changes them (vfs.FS.Write). Nil for other ops.
func (e *engine) fill(op workload.Op) []byte {
	if op.Kind != workload.OpWriteFile {
		return nil
	}
	for _, b := range e.fills {
		if int64(len(b)) == op.Size && (op.Size == 0 || b[0] == op.Byte) {
			return b
		}
	}
	b := workload.Fill(op)
	e.fills = append(e.fills, b)
	return b
}

// execute runs op on the target with index target, mounted at mount,
// reading into the target's buffer and keeping what a read grew it to.
func (e *engine) execute(op workload.Op, m *opMemo, mount string, target int) checker.OpResult {
	r := workload.ExecuteAt(e.cfg.Kernel, op, m.paths(mount, op), m.data, e.reads[target])
	if r.Data != nil {
		e.reads[target] = r.Data[:0]
	}
	return r
}

// paths returns op's operands under mount, built on their first use.
func (m *opMemo) paths(mount string, op workload.Op) workload.Paths {
	for _, a := range m.at {
		if a.mount == mount {
			return a.paths
		}
	}
	p := workload.At(mount, op)
	m.at = append(m.at, opAt{mount, p})
	return p
}

// rowLabel returns op's heatmap row label, rendered on its first use.
func (m *opMemo) rowLabel(op workload.Op) string {
	if m.label == "" {
		m.label = op.String()
	}
	return m.label
}

// Run explores the configured state space and returns the result.
func Run(cfg Config) Result {
	e := newEngine(cfg)
	e.set, e.owned = cfg.Visited, cfg.Visited == nil
	if e.owned {
		e.set = visited.NewSet(nil)
	}
	cfg.Mem.Watch(e.set)
	// Idempotent: swarm peers seed a shared set with the same states.
	cfg.Resume.SeedInto(e.set)
	e.src = &search{ops: cfg.Pool.Enumerate(), seed: cfg.Seed, set: e.set, crashSeen: make(map[crashKey]bool)}
	return e.run()
}

// run drives the loop from the targets' current state to a finalized
// Result. Every exit after the start event — engine failures included —
// passes through the same finalization, so the stream always sees the
// worker drain and the journal always ends with a verdict.
func (e *engine) run() Result {
	clock := e.cfg.Kernel.Clock()
	start := clock.Now()
	e.probe.runBegin(e.cfg.Seed)
	err := e.explore()
	if err == nil && e.oomed {
		// The memory model refused a store and no governor could
		// relieve it: a structured failure, not a silently truncated run.
		err = &OOMError{Ops: e.res.Ops, UniqueStates: e.res.UniqueStates}
	}
	res := &e.res
	res.Err = err
	// Virtual elapsed time can legitimately be zero (a tiny pool whose
	// operations are all served from caches before the clock advances):
	// the rate is then zero, not +Inf.
	if res.Elapsed = clock.Now() - start; res.Elapsed > 0 {
		res.Rate = simclock.Rate(res.Ops, res.Elapsed)
	}
	if e.cfg.Crash != nil {
		for i := range e.cfg.Crash.Planes {
			st := e.cfg.Crash.Planes[i].Injector.Stats()
			res.Crash.ErrorsInjected += st.ErrorsInjected
			res.Crash.TornInjected += st.TornInjected
			res.Crash.CorruptInjected += st.CorruptInjected
		}
	}
	status := "done"
	switch {
	case res.Bug != nil:
		status = "bug"
	case err != nil:
		status = "failed"
	case res.Canceled:
		status = "canceled"
	}
	e.probe.done(status, res, len(e.trail))
	if e.set != nil {
		res.Fidelity, res.OmissionProb = e.set.Fidelity(), e.set.Omission()
	}
	if e.owned {
		res.Resume, res.ResumeErr = ExportResume(e.set)
	}
	return *res
}

// PanicError is a target (or tracker/checker) panic converted into an
// engine failure. The engine runs arbitrary file-system code under test;
// a panicking target must produce a failed Result with the partial trail
// that triggered it — not kill the process (or a whole swarm).
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack string
	// Trail is the operation prefix being explored when the target
	// panicked (the panicking operation itself is not yet appended).
	Trail []workload.Op
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("mc: target panicked: %v (exploring a trail of %d ops)\n%s",
		p.Value, len(p.Trail), p.Stack)
}

// explore records the initial state and runs the DFS, with panic
// isolation: a panic anywhere under the engine (targets, trackers,
// checker) becomes a PanicError carrying the partial trail, fires the
// cancellation token so swarm peers stop, and counts under
// obs.MetricPanics.
func (e *engine) explore() (err error) {
	defer func() {
		if r := recover(); r != nil {
			trail := append([]workload.Op(nil), e.trail...)
			err = &PanicError{Value: r, Stack: string(debug.Stack()), Trail: trail}
			e.probe.panicked(r, len(trail))
			e.cfg.Cancel.Cancel("target panicked")
		}
	}()
	if err := e.equalize(); err != nil {
		return err
	}
	// A resumed run (or a swarm peer racing us to a shared set) may
	// already know the initial state: count it as a unique discovery —
	// and charge its visit cost — only when it is genuinely new.
	h, er := e.cfg.Checker.StateHash()
	if er != errno.OK {
		return fmt.Errorf("mc: hashing initial state: %w", er)
	}
	e.curHash = h
	novel, _, err := e.src.visit(0, nil, h)
	if err != nil {
		return err
	}
	if novel {
		e.res.UniqueStates++
		e.visitCost()
	}
	e.probe.root(&e.cfg, h, novel)
	return e.dfs(0)
}

// equalize applies the §3.4 free-space workaround when configured.
func (e *engine) equalize() error {
	if e.cfg.EqualizeFreeSpace {
		if er := e.cfg.Checker.EqualizeFreeSpace(); er != errno.OK {
			return fmt.Errorf("mc: equalizing free space: %w", er)
		}
	}
	return nil
}

func (e *engine) budgetLeft() bool {
	if e.res.Bug != nil || e.oomed {
		return false
	}
	if e.cfg.Cancel.Canceled() {
		e.res.Canceled = true
		return false
	}
	if e.cfg.MaxOps > 0 && e.res.Ops >= e.cfg.MaxOps {
		return false
	}
	return e.cfg.MaxStates <= 0 || e.res.UniqueStates < e.cfg.MaxStates
}

func (e *engine) stateBytes() int64 {
	var total int64
	for _, t := range e.cfg.Trackers {
		total += t.StateBytes()
	}
	return total
}

// storeStateCost charges the memory model for the checkpoint just taken
// and returns its size, which the backtrack's Release pairs with.
func (e *engine) storeStateCost() int64 {
	if e.cfg.Mem == nil {
		return 0
	}
	n := e.stateBytes()
	if err := e.cfg.Mem.Store(n); err != nil {
		// Out of memory+swap on a checkpoint store. The governor can
		// relieve it by degrading the visited set; otherwise the
		// run finalizes as a structured OOM failure (the charge
		// stands — backtrack's Release pairs with it either way).
		if !e.relieveMem() {
			e.oomed = true
		}
	}
	return n
}

// relieveMem asks the set's governor (none on a set Run built) for
// emergency relief after a refused store: one fidelity downgrade, plus
// the release of every concrete state retained for exact matching.
// Reports whether anything was freed (the caller's next store should
// succeed).
func (e *engine) relieveMem() bool {
	if !e.set.Governor().Relieve(e.cfg.Mem) {
		return false
	}
	e.releaseRetained()
	return true
}

// releaseRetained drops the concrete states retained for exact
// visited-state matching — reduced-fidelity tables match on
// fingerprints or bits and restore nothing, so the retention pool goes
// with the downgrade.
func (e *engine) releaseRetained() {
	if e.retained > 0 {
		e.cfg.Mem.Release(e.retained)
		e.retained = 0
	}
}

// fetchStateCost charges bringing a checkpoint back for the restore. It
// is sized by the live, post-op state, as it always has been — not by the
// checkpoint's own size — so it is measured here rather than reused.
func (e *engine) fetchStateCost() {
	if e.cfg.Mem != nil {
		e.cfg.Mem.Fetch(e.stateBytes(), 0)
	}
}

// visitCost charges the memory footprint of recording a newly visited
// state: the concrete state retained for backtracking (Spin's c_track'd
// buffers live for the whole run, which is why the paper's long runs
// eventually spill to swap). The table entry is not charged here: Mem
// watches the set and reads the table's size for itself.
func (e *engine) visitCost() {
	if e.cfg.Mem == nil {
		return
	}
	// Give the governor a look before committing more memory; it may
	// evict or downgrade preemptively at the watermarks.
	e.set.Governor().Maybe(e.cfg.Mem)
	if e.set.Fidelity() != visited.FidelityExact {
		// Reduced fidelity retains no concrete states — the table keeps
		// fingerprints or bits only. Releasing the exact-era pool here
		// (once, lazily) is the downgrade's memory payoff.
		e.releaseRetained()
		return
	}
	n := e.stateBytes()
	if err := e.cfg.Mem.Store(n); err != nil {
		e.retained += n // the refused store still charged its bytes
		if !e.relieveMem() {
			e.oomed = true
		}
		return
	}
	e.retained += n
}

// restore brings every target back to the state saved under key,
// consuming the images.
func (e *engine) restore(key uint64) error {
	for _, t := range e.cfg.Trackers {
		if err := t.Restore(key); err != nil {
			return fmt.Errorf("mc: restore %s: %w", t.Name(), err)
		}
	}
	return nil
}

// discardCheckpoints releases whatever images the trackers still hold
// under key (a tracker holding none ignores the call). Every error path
// must call it: an abandoned key's images are never restored (restore
// consumes them), so without an explicit discard they stay in the
// snapshot pools forever.
func (e *engine) discardCheckpoints(key uint64) {
	for _, t := range e.cfg.Trackers {
		t.Discard(key)
	}
}

// dfs explores every operation choice from the current concrete state:
// checkpoint, step (after any crash probe), visit the state the step
// reached and hashed, descend if it is worth expanding, restore.
func (e *engine) dfs(depth int) error {
	if depth >= e.cfg.MaxDepth {
		return nil
	}
	for i := 0; e.budgetLeft(); i++ {
		op, ok, err := e.src.next(depth, i)
		if err != nil || !ok {
			return err
		}
		// Save every target's state so the op can be backtracked.
		e.probe.begin(op, depth)
		key := e.nextKey
		e.nextKey++
		for _, t := range e.cfg.Trackers {
			if err = t.Checkpoint(key); err != nil {
				err = fmt.Errorf("mc: checkpoint %s: %w", t.Name(), err)
				break
			}
		}
		e.probe.checkpointed()
		var stored int64
		var h abstraction.State
		if err == nil {
			stored = e.storeStateCost()
			// The crash probe leaves the concrete state untouched.
			if e.cfg.Crash != nil {
				err = e.src.crash(e, depth, op)
			}
			if err == nil && e.res.Bug == nil {
				h, err = e.step(op)
			}
		}
		e.probe.end()
		if err == nil {
			if b := e.res.Bug; b != nil {
				// A swarm's first bug is the first to be journaled.
				e.cfg.Cancel.reportBug(b, func() { e.probe.bug(depth, op, b) })
			} else {
				err = e.settle(depth, op, h)
			}
		}
		if err == nil {
			// Backtrack.
			e.fetchStateCost()
			e.probe.idle()
			err = e.restore(key)
			e.probe.restored()
		}
		if err != nil {
			e.discardCheckpoints(key)
			return err
		}
		if e.cfg.Mem != nil {
			// The restore brought back the state storeStateCost sized.
			e.cfg.Mem.Release(stored)
		}
		e.probe.backtracked(depth)
	}
	return nil
}

// settle takes the visited-state decision for h, the state op's step
// reached from depth, and explores below it when it is worth expanding:
// prune if the state was already expanded at this depth or shallower —
// by this engine, or by any swarm peer when the set is shared.
func (e *engine) settle(depth int, op workload.Op, h abstraction.State) error {
	novel, expand, err := e.src.visit(depth+1, e.results, h)
	if err != nil {
		return err
	}
	e.probe.visited(depth, op, h, novel, expand)
	if !expand {
		e.res.Revisits++
		return nil
	}
	if novel {
		e.res.UniqueStates++
		e.visitCost()
	}
	e.trail = append(e.trail, op)
	parent := e.curHash
	e.curHash = h
	if err := e.dfs(depth + 1); err != nil {
		return err
	}
	e.curHash = parent
	e.trail = e.trail[:len(e.trail)-1]
	return nil
}

// step executes one operation on every target and runs the integrity
// checks, recording a bug report on discrepancy: exploration, trail
// replay, and journal replay all execute and judge through here. The
// state check's one abstraction walk per target (Algorithm 1) also
// yields the combined hash of the state reached, which step returns
// for settle to visit (a step that recorded a bug is never settled).
func (e *engine) step(op workload.Op) (abstraction.State, error) {
	targets := e.cfg.Checker.Targets()
	e.probe.idle()
	for _, t := range e.cfg.Trackers {
		if err := t.PreOp(); err != nil {
			e.probe.remounted()
			return abstraction.State{}, fmt.Errorf("mc: pre-op %s: %w", t.Name(), err)
		}
	}
	e.probe.remounted()
	results, m := e.results[:0], e.memoOf(op)
	for i, tgt := range targets {
		results = append(results, e.execute(op, m, tgt.MountPoint, i))
	}
	e.probe.ran()
	for _, t := range e.cfg.Trackers {
		if err := t.PostOp(); err != nil {
			e.probe.remounted()
			return abstraction.State{}, fmt.Errorf("mc: post-op %s: %w", t.Name(), err)
		}
	}
	e.probe.remounted()
	e.res.Ops++
	e.results = results
	e.errnos = e.errnos[:0]
	for _, r := range results {
		e.errnos = append(e.errnos, r.Err.String())
	}
	e.probe.executed(&e.res, len(e.trail), e.errnos)
	opName := op.Kind.String()
	e.res.Coverage.ByOp[opName]++
	pairs := e.res.Coverage.ByOpErrno[opName]
	if pairs == nil {
		pairs = make(map[string]int64)
		e.res.Coverage.ByOpErrno[opName] = pairs
	}
	for _, name := range e.errnos {
		e.res.Coverage.ByErrno[name]++
		pairs[name]++
	}

	// Majority voting (§7) swaps both checks at this one site.
	checkResults, checkStates := e.cfg.Checker.CheckResults, e.cfg.Checker.CheckAndHash
	if e.cfg.MajorityVote {
		checkResults, checkStates = e.cfg.Checker.CheckResultsMajority, e.cfg.Checker.CheckAndHashMajority
	}
	// The checks label a discrepancy with the op's text, which is rendered
	// here only once one is found: almost no step needs it.
	d := checkResults("", results)
	var h abstraction.State
	if d == nil {
		var er errno.Errno
		if d, h, er = checkStates(""); er != errno.OK {
			e.probe.judged()
			return h, fmt.Errorf("mc: state check: %w", er)
		}
	}
	e.probe.judged()
	if d != nil {
		d.Op = op.String()
		e.report(d, op, nil)
	}
	return h, nil
}

// report records the discrepancy op exposed (crash: at which crash
// point, for a crash-consistency bug) with the trail that led to it.
func (e *engine) report(d *checker.Discrepancy, op workload.Op, crash *journal.CrashSpec) {
	trail := make([]workload.Op, len(e.trail), len(e.trail)+1)
	copy(trail, e.trail)
	e.res.Bug = &BugReport{Discrepancy: d, Trail: append(trail, op), OpsExecuted: e.res.Ops, Crash: crash}
	// Fire the shared token right away so coordinated swarm peers stop
	// within one operation instead of waiting for this run to unwind.
	e.cfg.Cancel.Cancel("bug found")
}

// VerifyTrail executes a recorded trail from cfg's fresh targets,
// checking after every operation, and reports the first discrepancy
// (nil if the trail no longer reproduces) and whether it is the wanted
// one: any discrepancy when want is nil, otherwise one of the same kind.
// It steps through the engine's own step — free-space equalization, the
// per-operation tracker hooks (remounts for kernel file systems) and the
// configured checks (majority voting included) run exactly as they did
// during exploration, so reproduction is judged against the first
// discrepancy the replay hits, as the original run did — but takes no
// checkpoints: a linear trail has nothing to backtrack to. A non-nil
// crash marks a crash-bug trail, whose FINAL operation is not executed
// but crash-tested on the spec'd target at the spec'd write index
// (reprobe); a prefix discrepancy still counts.
func VerifyTrail(cfg Config, trail []workload.Op, crash *journal.CrashSpec, want *checker.Discrepancy) (*checker.Discrepancy, bool, error) {
	e := newEngine(cfg)
	if err := e.equalize(); err != nil {
		return nil, false, err
	}
	var final []workload.Op
	if crash != nil {
		if len(trail) == 0 {
			return nil, false, fmt.Errorf("mc: crash replay: empty trail")
		}
		trail, final = trail[:len(trail)-1], trail[len(trail)-1:]
	}
	var got *checker.Discrepancy
	for _, op := range trail {
		if _, err := e.step(op); err != nil {
			return nil, false, err
		}
		if e.res.Bug != nil {
			got, final = e.res.Bug.Discrepancy, nil
			break
		}
	}
	if final != nil {
		p, err := crashPlaneFor(&e.cfg, crash.Target)
		if err != nil {
			return nil, false, err
		}
		if got, _, err = e.reprobe(p, final[0], []int{crash.Write}); err != nil {
			return nil, false, fmt.Errorf("mc: crash replay: %w", err)
		}
	}
	return got, got != nil && (want == nil || got.Kind == want.Kind), nil
}

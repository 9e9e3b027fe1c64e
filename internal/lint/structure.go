package lint

import (
	"go/ast"
	"go/types"
)

// The rule tables, checked by the engine in rules.go.

// NewStructure returns the structure analyzer: the module's structural
// invariants, one row each. Its findings cannot be suppressed: a row
// that no longer holds is changed here, in review.
func NewStructure() *Analyzer {
	a := newRules("structure", "the module's structure: what stays deleted, and where a go statement, a channel, "+
		"a whole-image copy, a kernel cache map, a lock or a state walk may appear", structureRules)
	a.Unsuppressible = true
	return a
}

// NewWalltime returns the walltime analyzer. Journal replay is only
// deterministic if every recorded quantity derives from the session's
// virtual clock and seeded choices: a time.Now or time.Since call, or
// math/rand's unseeded state, differs between a recording and its
// replay. All simulated time flows through internal/simclock, and all
// randomness through the engine's seeded shuffles.
func NewWalltime() *Analyzer {
	return newRules("walltime", "time.Now/time.Since and math/rand are forbidden outside internal/simclock: "+
		"wall-clock reads and unseeded randomness break replay determinism", walltimeRules(clockPkg))
}

const clockPkg = "mcfs/internal/simclock"

// walltimeRules exempts the clock's package. Any use of math/rand other
// than a function (its Rand type, a method) needs the import, a finding
// of its own.
func walltimeRules(clock string) []rule {
	return []rule{
		{not: []string{clock}, match: imports("math/rand", "math/rand/v2"), why: "%s: unseeded randomness breaks replay determinism (derive choices from the engine's seeded shuffle)"},
		{not: []string{clock}, match: uses("time.Now", "time.Since"), why: "%s reads the wall clock: route timing through internal/simclock so replay stays deterministic"},
		{not: []string{clock}, match: uses("math/rand.*", "math/rand/v2.*"), why: "use of rand.%s: unseeded randomness breaks replay determinism"},
	}
}

// NewAtomicPlain returns the atomicplain analyzer: no code uses a
// sync/atomic function (atomic.AddInt64(&c.n, 1), ...). A shared field
// is a typed atomic (atomic.Int64, atomic.Pointer[T], ...) whose
// methods are the only way to reach its value, so the type checker rules
// out a plain access racing with an atomic one, and go vet's copylocks
// check a plain copy. Neither sees c.n = atomic.Int64{}; see DESIGN.md,
// "Static analysis".
func NewAtomicPlain() *Analyzer {
	return newRules("atomicplain", "sync/atomic functions are forbidden: a shared field is a typed atomic, reached only through its methods",
		[]rule{{match: uses("sync/atomic.*"), why: "sync/atomic.%s: use a typed atomic (atomic.Int64, ...), so no plain access can race with it"}})
}

// The scopes several rows share.
var (
	// opPath is every package an explored op crosses below the engine.
	opPath = []string{"mcfs/internal/workload/...", "mcfs/internal/kernel/...", "mcfs/internal/fuse/...", "mcfs/internal/fs/...",
		"mcfs/internal/blockdev/...", "mcfs/internal/fault/...", "mcfs/internal/tracker/...", "mcfs/internal/checker/...", "mcfs/internal/abstraction/..."}
	oneLock = []string{"mcfs/internal/mc/visited", "mcfs/internal/memmodel"}
	// table is this file, whose strings name what the rows forbid.
	table = []string{"mcfs/internal/lint/structure.go"}
	// readDirs is every vfs.FS.ReadDir the module implements.
	readDirs = []string{"mcfs/internal/fs/extfs.FS.ReadDir", "mcfs/internal/fs/jffs2sim.FS.ReadDir", "mcfs/internal/fs/verifs1.FS.ReadDir",
		"mcfs/internal/fs/verifs2.FS.ReadDir", "mcfs/internal/fs/xfssim.FS.ReadDir", "mcfs/internal/fuse.Client.ReadDir"}
)

// structureRules holds one or a few rows per invariant; each row's why
// says what the invariant buys, and DESIGN.md says more.
var structureRules = []rule{
	// One golden: BENCH_mc.json is compared byte for byte, and -update rewrites it.
	{tests: true, not: table, match: oneOf(exists("mcfs/internal/bench"), imports("mcfs/internal/bench"), decl("DefaultTolerance"), str(`"tolerance"`)),
		why: "%s: BENCH_mc.json is a golden, with no tolerance gate beside it"},
	// One event seam: the explore loop makes typed calls on one probe, which owns the planes.
	{in: []string{"mcfs/internal/mc"}, not: []string{"mcfs/internal/mc/probe.go"}, match: oneOf(decl("eobs", "es"),
		uses("(*mcfs/internal/obs/journal.Recorder).Enabled", "(*mcfs/internal/obs.Hub).Record")), why: "%s: instrumentation outside the probe (probe.go)"},
	// The op path: an explored op is one call stack under the engine's recover.
	{in: opPath, match: oneOf(goStmt, makes(isChan)), why: "%s in a package an explored op crosses: an op is one call stack under the engine's recover"},
	// One walk: the step that judges a state hashes it; explore hashes the initial state, once.
	{in: []string{"mcfs/internal/mc"}, not: []string{"mcfs/internal/mc.engine.explore"}, match: uses(stateHash), why: "%s: only explore hashes a state outside the step's own check"},
	{in: []string{"mcfs/internal/mc.engine.explore"}, max: 1, match: uses(stateHash), why: "%s: explore hashes the initial state once"},
	// Reused walk memory: a state check walks in its owner's memo and record buffer; only the crash oracle's reference flow walks fresh.
	{in: []string{"mcfs/internal/checker", "mcfs/internal/mc"}, not: []string{"mcfs/internal/mc.engine.reprobe"},
		match: uses("mcfs/internal/abstraction.Hash", "mcfs/internal/abstraction.Snapshot"),
		why:   "%s: a state check walks in its owner's memory ((*abstraction.Memo).Snapshot into a kept buffer); only reprobe walks fresh"},
	// A listing appends to the caller's buffer: no ReadDir makes the slice it returns.
	{in: readDirs, match: makes(isDirEntries), why: "%s in a ReadDir: a listing appends to the caller's dst"},
	// No image copy: a crash point is a position in the write log, and a checkpoint an undo frame.
	{in: []string{"mcfs/internal/blockdev"}, not: []string{"mcfs/internal/blockdev.Disk.Snapshot"},
		match: makes(wholeImage), why: "%s: only Snapshot copies a whole image; a crash point is a position in the write log"},
	// Sparse media: a medium starts blank and takes a page when a write makes one non-blank.
	{in: []string{"mcfs/internal/blockdev.NewDisk", "mcfs/internal/blockdev.NewMTD", "mcfs/internal/blockdev.newStore"},
		match: makes(isBytes), why: "%s: a new medium is blank and holds no page; it allocates per-page metadata only"},
	{in: []string{"mcfs", "mcfs/internal/mc/...", "mcfs/internal/tracker", "mcfs/internal/kernel"},
		match: uses("(*mcfs/internal/blockdev.Disk).Snapshot", "(*mcfs/internal/blockdev.Disk).Restore", "(*mcfs/internal/blockdev.Disk).LoadImage",
			"(*mcfs/internal/blockdev.Disk).LoadImageDelta", "(*mcfs/internal/blockdev.MTD).LoadImage"),
		why: "%s: the engine checkpoints with a frame and installs with RevertFrame and Patch; only tests and benchmark/ copy a whole image"},
	// One lock: the visited set is one map behind one mutex, and a memory model reads its size.
	{in: oneLock, match: imports("sync/atomic"), why: "%s: the visited set is one map behind one mutex"},
	{in: oneLock, max: 2, match: syncVar, why: "%s: the visited set and the memory model hold two sync values, the set's mutex and the governor's"},
	{tests: true, match: decl("InsertVisited", "AddSharedVisited", "AttachMem", "InitialSlots"), why: "%s: a memory model reads the set's size, not a ledger"},
	// One parse: a path is consumed a component at a time, never split and re-joined.
	{in: []string{"mcfs/internal/vfs", "mcfs/internal/kernel", "mcfs/internal/abstraction"}, match: uses("strings.Split", "strings.SplitN",
		"strings.SplitAfter", "strings.SplitAfterN", "strings.SplitSeq", "strings.SplitAfterSeq"), why: "%s: a path is consumed a component at a time"},
	{in: []string{"mcfs/internal/vfs", "mcfs/internal/kernel"}, match: uses("strings.Join"), why: "%s: a path is consumed in place, never re-joined"},
	{in: []string{"mcfs/internal/abstraction/abstraction.go"}, match: uses("mcfs/internal/vfs.JoinPath"), why: "%s: the abstraction walk builds clean paths"},
	{match: decl("SplitPath", "BaseName", "DirPath"), why: "%s: a path is consumed a component at a time"},
	// The jffs2 scan parses, in place, the bytes the MTD lends, and sorts without reflection; the replay grows content in place, and the memo
	// of the last replay is copied into arrays the copy's destination already has.
	{in: []string{"mcfs/internal/fs/jffs2sim"}, match: uses("sort.Slice", "sort.SliceStable", "sort.SliceIsSorted"), why: "%s: use slices.SortFunc"},
	{in: []string{"mcfs/internal/fs/jffs2sim.MountCached", "mcfs/internal/fs/jffs2sim.FS.replay", "mcfs/internal/fs/jffs2sim.blockScan.scan",
		"mcfs/internal/fs/jffs2sim.inodeInfo.writeAt", "mcfs/internal/fs/jffs2sim.memo.keep", "mcfs/internal/fs/jffs2sim.memo.restore",
		"mcfs/internal/fs/jffs2sim.inodeInfo.copyFrom"},
		match: makes(isBytes), why: "%s in the jffs2 mount scan, replay or memo copy: a node is a position in the bytes the MTD lends, and content grows in place into the array the last mount left"},
	// One hub: phases, telemetry, metrics and spans live on one obs.Hub, which reads the virtual clock.
	{tests: true, match: oneOf(exists("mcfs/internal/obs/perf"), imports("mcfs/internal/obs/perf"), funcDecl("Perf"), decl("SetSampleEvery")),
		why: "%s: an engine has one observability object, its obs.Hub"},
	{tests: true, in: []string{"mcfs/internal/obs"}, match: decl("Options"), why: "obs.%s: a hub takes no options"},
	{in: []string{"mcfs/internal/obs/..."}, match: oneOf(decl("TraceCapacity", "DefaultTraceCapacity", "DroppedSpans"), uses("time.Now"), comment("lint:ignore")),
		why: "%s in internal/obs: the hub keeps no span ring, reads the virtual clock and suppresses no lint"},
	// One log: every persisted window write is a crash point; nothing arms, caps or disarms one.
	{tests: true, not: table, match: oneOf(decl("ArmCrash", "ArmCrashes", "DisarmPending", "CrashCaptures", "maxArmedPoints", "PointsPerOp",
		"CrashPointsPerOp", "DefaultCrashPointsPerOp", "SetCrashImage", "TakeCrashImage", "TakeCrashImages"), funcDecl("Armed"), str("crash-points")),
		why: "%s: every persisted window write is a crash point"},
	// One configuration: a value nothing varies is a constant; the types hold an invariant, no hook checks it.
	{not: table, match: oneOf(decl("syncIfNeeded", "IncludeOwnership", "EvictFloor", "MaxEvictRounds", "MetricJournal", "MetricJournalBytes",
		"MetricJournalFlushes", "MetricJournalRecords", "SaturationStates", "BasePerOp", "Parallelism", "InodeCount", "JournalBlocks", "FlushEvery",
		"Calibration"), str(`"parallelism"`, "calibration-workers"), exists("mcfs/cmd/internal/runflag"), imports("mcfs/cmd/internal/runflag")),
		why: "%s: a deleted setting or the second CLI's flag package is back; a value nothing varies is a constant"},
	{tests: true, match: decl("SetOnRestore", "restoreHooker", "invalPending", "Discarder", "Ioctler", "atomicIndex"), why: "%s: one checkpoint interface, no restore hook"},
	// One mount record: a mount point keeps its record, and the record its spec and caches, for the kernel's life.
	{in: []string{"mcfs/internal/kernel"}, not: []string{"mcfs/internal/kernel.Kernel.Mount"}, match: makes(isCacheMap),
		why: "%s: a mount point's record keeps its caches for the kernel's life; only the first Mount at a point makes them"},
	{in: []string{"mcfs/internal/kernel", "mcfs/internal/tracker", "mcfs/internal/mc"}, not: []string{"mcfs/internal/kernel.Mount.Spec"},
		match: decl("spare", "mountSpecOf", "Spec"), why: "%s: a mount point keeps one record, and it holds the spec every remount mounts"},
	{in: []string{"mcfs/internal/kernel.mountInvalidator.InvalAll", "mcfs/internal/kernel.caches.empty"}, match: makes(anyType),
		why: "%s: an invalidation empties the caches in place"},
	// Spares: memory an owner lets go of and takes back is held weakly, so a collection reclaims it.
	{match: usesType("sync.Pool"), why: "%s: a pool's victim cache keeps its items through a collection; keep a spare in an internal/spare Slot, which the next one takes back"},
}

const stateHash = "(*mcfs/internal/checker.Checker).StateHash"

// The predicates of makes see the made type's underlying type.

func anyType(types.Type, []ast.Expr, *types.Info) bool { return true }

func isChan(t types.Type, _ []ast.Expr, _ *types.Info) bool { _, ok := t.(*types.Chan); return ok }

func isBytes(t types.Type, _ []ast.Expr, _ *types.Info) bool {
	return types.Identical(t, types.NewSlice(types.Typ[types.Byte]))
}

// isDirEntries matches a []vfs.DirEntry.
func isDirEntries(t types.Type, _ []ast.Expr, _ *types.Info) bool {
	s, ok := t.(*types.Slice)
	return ok && types.TypeString(s.Elem(), nil) == "mcfs/internal/vfs.DirEntry"
}

// isCacheMap matches a map keyed by the kernel's dentry key.
func isCacheMap(t types.Type, _ []ast.Expr, _ *types.Info) bool {
	m, ok := t.(*types.Map)
	return ok && types.TypeString(m.Key(), nil) == "mcfs/internal/kernel.dkey"
}

// wholeImage matches make([]byte, x.size) or make([]byte, x.Size())
// where x is a medium of internal/blockdev: a buffer for its whole image.
func wholeImage(t types.Type, args []ast.Expr, info *types.Info) bool {
	n := args[len(args)-1]
	if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 0 {
		n = call.Fun
	} else if ok {
		return false
	}
	sel, _ := ast.Unparen(n).(*ast.SelectorExpr)
	return isBytes(t, nil, nil) && sel != nil && (sel.Sel.Name == "size" || sel.Sel.Name == "Size") &&
		inPkg(namedOf(info.TypeOf(sel.X)), "mcfs/internal/blockdev")
}

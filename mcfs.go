// Package mcfs is a model-checking framework for file systems, a from-
// scratch Go reproduction of "Model-Checking Support for File System
// Development" (HotStorage '21).
//
// MCFS compares file systems to each other by nondeterministically
// issuing bounded sequences of file-system operations against all of
// them, asserting after every operation that return values, errnos, and
// abstract states (an MD5 hash of pathnames, file data, and important
// metadata) agree. The explorer searches the bounded state space
// exhaustively, pruning states whose abstract hash was already visited
// and backtracking by restoring concrete file-system state — via
// unmount/device-restore/remount for kernel file systems, or via the
// checkpoint/restore ioctl APIs the paper proposes (and VeriFS
// implements).
//
// Quick start:
//
//	session, err := mcfs.NewSession(mcfs.Options{
//	    Targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
//	    MaxDepth: 3,
//	    MaxOps:   5000,
//	})
//	if err != nil { ... }
//	defer session.Close()
//	result := session.Run()
//	if result.Bug != nil {
//	    fmt.Println(result.Bug) // discrepancy + replayable trail
//	}
//
// Supported target kinds: "ext2", "ext4" (extfs without/with journal),
// "xfs" (extent-based, 16 MiB minimum volume), "jffs2" (log-structured on
// a simulated MTD flash device), "verifs1" and "verifs2" (the paper's
// RAM file systems with checkpoint/restore support, mounted over a
// simulated FUSE transport). Device-backed kinds can run on simulated
// RAM, SSD, or HDD backing stores; VeriFS kinds accept seeded bugs for
// regenerating the paper's bug-finding results.
package mcfs

import (
	"fmt"
	"slices"
	"sync"

	"mcfs/internal/blockdev"
	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/jffs2sim"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fs/xfssim"
	"mcfs/internal/fuse"
	"mcfs/internal/kernel"
	"mcfs/internal/mc"
	"mcfs/internal/mc/visited"
	"mcfs/internal/memmodel"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
	"mcfs/internal/simclock"
	"mcfs/internal/tracker"
	"mcfs/internal/vfs"
	"mcfs/internal/workload"
)

// Re-exported result types.
type (
	// Result summarizes one exploration run.
	Result = mc.Result
	// BugReport is a discrepancy plus its replayable trail.
	BugReport = mc.BugReport
	// Discrepancy describes one behavioral difference.
	Discrepancy = checker.Discrepancy
	// Op is one explored operation.
	Op = workload.Op
	// OpKind enumerates operation types for Pool.Ops.
	OpKind = workload.OpKind
	// Coverage reports operation/outcome counts for a run.
	Coverage = mc.Coverage
	// ResumeState carries visited-state knowledge between runs.
	ResumeState = mc.ResumeState
	// Pool is the bounded operation/parameter space.
	Pool = workload.Pool
	// SwarmResult is the merged outcome of a coordinated swarm run.
	SwarmResult = mc.SwarmResult
	// Cancel is the cancellation token swarm workers share; callers can
	// pass their own (Options.Cancel) to abort a running swarm.
	Cancel = mc.Cancel
	// Journal is the flight-recorder writer sessions and swarms append
	// exploration records to (journal.Create / journal.NewWriter).
	Journal = journal.Writer
	// ReplayReport summarizes a deterministic journal replay.
	ReplayReport = mc.ReplayReport
	// MinimizeStats reports what a trail minimization did.
	MinimizeStats = mc.MinimizeStats
	// CrashStats counts crash-exploration work (probes, points, clean
	// recoveries, injected faults) for a run or merged swarm.
	CrashStats = mc.CrashStats
	// CrashSpec pins a crash bug to (target, write index); carried by
	// BugReport.Crash and bug-repro bundles.
	CrashSpec = journal.CrashSpec
	// Stream is the live exploration event bus (stream.New); sessions
	// and swarms publish steps, crash verdicts, heartbeats, and bugs to
	// it in deterministic virtual time.
	Stream = stream.Bus
	// CrashHeatmap aggregates crash-point verdicts by (op, write index);
	// carried by Result.CrashHeatmap and SwarmResult.CrashHeatmap.
	CrashHeatmap = stream.Heatmap
	// WorkerHealth is the stream bus's per-worker liveness view.
	WorkerHealth = stream.Health
	// Fidelity is the visited table's matching precision (exact,
	// compact, or bitstate); carried by Result.Fidelity and
	// SwarmResult.Fidelity.
	Fidelity = visited.Fidelity
)

// Visited-table fidelity levels, re-exported from mc/visited.
const (
	FidelityExact    = visited.FidelityExact
	FidelityCompact  = visited.FidelityCompact
	FidelityBitstate = visited.FidelityBitstate
)

// Visited-table backend names for Options.Visited.
const (
	VisitedExact    = string(visited.KindExact)
	VisitedCompact  = string(visited.KindCompact)
	VisitedBitstate = string(visited.KindBitstate)
)

// NewCancel returns a fresh cancellation token for aborting a swarm.
func NewCancel() *Cancel { return mc.NewCancel() }

// NewStream returns a live exploration event bus ready for
// Options.Stream. Subscribers are lossy ring
// buffers: a slow consumer drops its own events, never blocking the
// engine.
func NewStream() *Stream { return stream.New() }

// Operation kinds, re-exported for building custom pools.
const (
	OpCreateFile = workload.OpCreateFile
	OpWriteFile  = workload.OpWriteFile
	OpTruncate   = workload.OpTruncate
	OpMkdir      = workload.OpMkdir
	OpRmdir      = workload.OpRmdir
	OpUnlink     = workload.OpUnlink
	OpRename     = workload.OpRename
	OpLink       = workload.OpLink
	OpSymlink    = workload.OpSymlink
	OpChmod      = workload.OpChmod
	OpRead       = workload.OpRead
)

// Backing selects the storage behind a device-backed file system.
type Backing string

// Backing stores, per Figure 2.
const (
	// BackingRAM is a RAM block device (brd2), the paper's default.
	BackingRAM Backing = "ram"
	// BackingSSD simulates an SSD-backed device.
	BackingSSD Backing = "ssd"
	// BackingHDD simulates an HDD-backed device.
	BackingHDD Backing = "hdd"
)

// Bug names for seeded VeriFS bugs (§6).
const (
	// BugTruncateNoZero: VeriFS1's expanding truncate does not zero
	// newly allocated space.
	BugTruncateNoZero = "truncate-no-zero"
	// BugNoCacheInvalidate: VeriFS restores state without invalidating
	// kernel caches.
	BugNoCacheInvalidate = "no-cache-invalidate"
	// BugWriteHoleNoZero: VeriFS2 does not zero the gap when a write
	// creates a hole.
	BugWriteHoleNoZero = "write-hole-no-zero"
	// BugSizeUpdateOnOverflow: VeriFS2 updates the file size only when a
	// write grows the file beyond its allocated capacity.
	BugSizeUpdateOnOverflow = "size-update-on-overflow"
	// BugJournalCommitFirst (ext4 only): the journal writes its commit
	// block before the descriptor and metadata images, so a crash between
	// commit and images makes recovery replay garbage. Invisible without
	// crash exploration — the volume is consistent whenever it is synced.
	BugJournalCommitFirst = "journal-commit-first"
)

// TargetSpec describes one file system under test.
type TargetSpec struct {
	// Kind is "ext2", "ext4", "xfs", "jffs2", "verifs1", or "verifs2".
	Kind string
	// Backing selects RAM/SSD/HDD for device-backed kinds; default RAM.
	Backing Backing
	// DeviceSize overrides the default device size (256 KiB for ext,
	// 16 MiB for xfs, 256 KiB MTD for jffs2). Negative sizes, sizes above
	// 1 GiB, jffs2 sizes that are not a multiple of the 8 KiB erase
	// block, and any nonzero size on a VeriFS kind (which has no device)
	// are rejected by NewSession.
	DeviceSize int64
	// Bugs seeds the named defects (VeriFS kinds, plus
	// BugJournalCommitFirst on ext4). NewSession rejects a bug the kind
	// does not implement.
	Bugs []string
	// DisablePerOpRemount turns off the default unmount/remount around
	// every operation for kernel file systems (the §6 ablation).
	DisablePerOpRemount bool
	// VMSnapshot wraps the target's tracker in hypervisor-snapshot
	// latencies (§5).
	VMSnapshot bool
	// DiskOnlyTracking uses the broken §3.2 persistent-state-only
	// tracker. For demonstrating corruption; never for real checking.
	// NewSession rejects it on a VeriFS kind, which has no disk.
	DiskOnlyTracking bool
}

// Options is the run spec: the one description of an exploration that a
// session, a swarm, a bundle's config.json and the mcfs CLI's flags share.
// The tagged fields are the serialisable settings — written verbatim as a
// bundle's config.json, so a bundle describes the run that produced it —
// and the `json:"-"` fields are attachments: live objects (hubs,
// writers, tokens) and host-only knobs that a replay rebuilds or does
// without.
type Options struct {
	// Targets lists the file systems to check against each other.
	Targets []TargetSpec `json:"targets"`
	// MaxDepth bounds operation-sequence length (default 3).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxOps bounds total executed operations (0 = unlimited).
	MaxOps int64 `json:"max_ops,omitempty"`
	// MaxStates bounds unique visited states (0 = unlimited).
	MaxStates int64 `json:"max_states,omitempty"`
	// Seed diversifies search order (0 = deterministic enumeration).
	// SwarmRun assigns each worker its own: worker w explores with seed w.
	Seed int64 `json:"seed,omitempty"`
	// MajorityVote enables majority voting with three or more targets
	// (the paper's §7 future work): instead of halting at the first
	// pairwise mismatch, the checker identifies the deviating minority.
	MajorityVote bool `json:"majority_vote,omitempty"`
	// DisableEqualizeFreeSpace skips the §3.4 capacity equalization.
	DisableEqualizeFreeSpace bool `json:"disable_equalize_free_space,omitempty"`
	// CrashExploration enables crash-consistency checking: before each
	// explored operation is committed, its write window is crash-tested
	// on every crash-testable target — simulate power loss at sampled
	// write indices, remount through the recovery path, and verify the
	// recovered state against the prefix-consistency oracle. Requires at
	// least one ext2/ext4/jffs2 target with per-op remounts and full
	// state tracking.
	CrashExploration bool `json:"crash_exploration,omitempty"`
	// Visited selects the visited-table backend: "exact" (default,
	// full-fidelity), "compact" (64-bit hash compaction), or "bitstate"
	// (fixed-RAM Bloom filter). Reduced backends trade a bounded
	// omission probability (Result.OmissionProb) for orders of
	// magnitude more states per MB, and cannot export a ResumeState. In
	// a swarm the backend is swarm-wide: a non-default one implies
	// ShareVisited.
	Visited string `json:"visited,omitempty"`
	// BitstateBytes sizes the bitstate Bloom array
	// (visited.DefaultBitstateBytes when 0; with a MemBudget, a quarter
	// of the budget).
	BitstateBytes int64 `json:"bitstate_bytes,omitempty"`
	// MemBudget arms the memory governor: the session's modeled
	// footprint is watched against this byte budget, and instead of
	// dying on memmodel.ErrOutOfMemory the visited table degrades —
	// deep exact entries are evicted at the soft watermark, then the
	// backend migrates exact→compact→bitstate at the hard watermark.
	// Result.Fidelity and Result.OmissionProb report the degradation
	// honestly. When Memory is nil, a budget-sized memory model is
	// derived automatically. In a swarm every worker arms a governor
	// watching the one shared table (ShareVisited is implied): the first
	// to cross a watermark degrades the table for everyone.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// Workers is the width of a SwarmRun: that many diversified workers
	// (seeds 1..Workers), at most GOMAXPROCS of them running at once —
	// excess workers queue. A single session ignores it.
	Workers int `json:"workers,omitempty"`
	// ShareVisited gives every swarm worker one shared visited-state
	// table, pruning states a peer already expanded instead of
	// re-exploring the overlap.
	ShareVisited bool `json:"share_visited,omitempty"`

	// Pool overrides the operation/parameter pool. When nil, the pool
	// defaults to workload.DefaultPool, restricted to VeriFS1's
	// operation set if any target is verifs1. Not carried by bundles:
	// trail replay executes recorded operations directly and never
	// consults the pool.
	Pool *Pool `json:"-"`
	// Memory enables the RAM/swap model with the given configuration.
	Memory *memmodel.Config `json:"-"`
	// Resume seeds the visited-state table from a previous run's
	// Result.Resume, continuing an interrupted exploration (§7).
	Resume *ResumeState `json:"-"`
	// Cancel lets the caller abort a SwarmRun; nil means an internal
	// token (still fired by the first bug or failure).
	Cancel *Cancel `json:"-"`
	// Obs attaches an observability hub: the kernel, checker, trackers,
	// devices, and FUSE transport all record metrics and spans into it,
	// the engine attributes virtual time to its named phases (checkpoint,
	// execute, verify, restore, hash, fsck, remount, journal, oracle) and
	// samples state-space telemetry every N executed operations into it,
	// and exports live progress through it. Nil disables all
	// instrumentation at zero cost. A hub rebases onto one session's
	// virtual clock, so SwarmRun hands it to no worker: attach one per
	// worker from the hook.
	Obs *obs.Hub `json:"-"`
	// Journal attaches a flight recorder: every explored operation,
	// visited-table decision, backtrack, and bug is appended as a
	// replayable journal record (worker id 0 for a single session, ids
	// 1..Workers interleaved on the one writer for a swarm). Nil
	// disables journaling at one branch per operation.
	Journal *journal.Writer `json:"-"`
	// Stream attaches a live exploration event bus: the engine publishes
	// steps, backtracks, crash verdicts, worker heartbeats, and bugs to
	// it, stamped with the session's virtual clock; a swarm's workers
	// interleave on it and SwarmResult.WorkerHealth snapshots its
	// liveness view at the end. Nil disables streaming at one branch per
	// emit site.
	Stream *Stream `json:"-"`

	// shared is the swarm coordinator's visited set, handed to a swarm
	// worker's session: the session arms its memory budget and explores
	// against this set instead of building one of its own.
	shared *visited.Set
}

// Session is an assembled model-checking run: a simulated kernel with
// every target mounted, a checker, and a tracker per target.
type Session struct {
	clock    *simclock.Clock
	kern     *kernel.Kernel
	check    *checker.Checker
	trackers []tracker.Tracker
	cfg      mc.Config
	mem      *memmodel.Model
	obsHub   *obs.Hub
	set      *visited.Set // the session's own governed/reduced visited set (nil: the engine's private exact set, or a swarm's)
}

// NewSession builds a session: devices are created and formatted, file
// systems mounted (VeriFS over the FUSE transport), trackers chosen per
// target kind.
func NewSession(opts Options) (*Session, error) {
	if len(opts.Targets) == 0 {
		return nil, fmt.Errorf("mcfs: no targets")
	}
	clock := simclock.New()
	k := kernel.New(clock)
	s := &Session{clock: clock, kern: k, obsHub: opts.Obs}
	// Rebase the hub onto this session's virtual clock so every span,
	// latency, and phase observation is in deterministic virtual time.
	opts.Obs.SetNow(clock.Now)
	k.SetObs(opts.Obs)

	var targets []checker.Target
	var planes []mc.CrashPlane
	anyVeriFS1 := false
	for i, ts := range opts.Targets {
		tgt := checker.Target{Name: fmt.Sprintf("%s#%d", ts.Kind, i), MountPoint: fmt.Sprintf("/mnt%d", i)}
		plane, err := s.mountTarget(tgt, ts, i, opts.CrashExploration && crashEligible(ts))
		if err != nil {
			return nil, err
		}
		if plane != nil {
			planes = append(planes, *plane)
		}
		targets = append(targets, tgt)
		if ts.Kind == "verifs1" {
			anyVeriFS1 = true
		}
	}
	s.check = checker.New(k, targets)
	s.check.SetObs(opts.Obs)

	var vmGroup *tracker.VMGroup
	for i, ts := range opts.Targets {
		point := fmt.Sprintf("/mnt%d", i)
		tr, err := s.trackerFor(point, ts, &vmGroup)
		if err != nil {
			return nil, err
		}
		if os, ok := tr.(tracker.ObsSetter); ok {
			os.SetObs(opts.Obs)
		}
		s.trackers = append(s.trackers, tr)
	}

	var pool workload.Pool
	switch {
	case opts.Pool != nil:
		pool = *opts.Pool
	case anyVeriFS1:
		pool = workload.VeriFS1Pool()
	default:
		pool = workload.DefaultPool()
	}

	maxDepth := opts.MaxDepth
	if maxDepth == 0 {
		maxDepth = 3
	}
	if opts.Memory != nil {
		s.mem = memmodel.New(*opts.Memory, clock)
	} else if opts.MemBudget > 0 {
		// Budget-derived memory model: RAM sized to the budget, swap left
		// at the paper's default. The governor defends the RAM budget by
		// degrading the visited table; the checkpoint images retained for
		// backtracking are irreducible working set (one per DFS level),
		// so letting them spill to swap — paying the modeled swap cost —
		// is the graceful outcome, not death. A hard swap cap belongs to
		// an explicit Memory config.
		memCfg := memmodel.DefaultConfig()
		memCfg.RAMBytes = opts.MemBudget
		s.mem = memmodel.New(memCfg, clock)
	}
	if opts.MemBudget > 0 {
		s.mem.SetBudget(opts.MemBudget, 0, 0)
	}
	set := opts.shared
	if set == nil {
		var err error
		hubs := []*obs.Hub{opts.Obs}
		set, err = newGovernedSet(opts.Visited, opts.BitstateBytes, opts.MemBudget,
			governorHooks(func() []*obs.Hub { return hubs }, opts.Stream))
		if err != nil {
			return nil, err
		}
		s.set = set
	}
	s.cfg = mc.Config{
		Kernel:            k,
		Checker:           s.check,
		Trackers:          s.trackers,
		Pool:              pool,
		MaxDepth:          maxDepth,
		MaxOps:            opts.MaxOps,
		MaxStates:         opts.MaxStates,
		Seed:              opts.Seed,
		Mem:               s.mem,
		EqualizeFreeSpace: !opts.DisableEqualizeFreeSpace,
		MajorityVote:      opts.MajorityVote,
		Resume:            opts.Resume,
		Obs:               opts.Obs,
		Journal:           opts.Journal.Recorder(0),
		Stream:            opts.Stream,
		Visited:           set,
	}
	if opts.CrashExploration {
		if len(planes) == 0 {
			return nil, fmt.Errorf("mcfs: crash exploration needs at least one crash-testable target: ext2, ext4, or jffs2 with per-op remounts and full state tracking")
		}
		s.cfg.Crash = &mc.CrashConfig{Planes: planes}
	}
	return s, nil
}

// backingProfiles maps every accepted TargetSpec.Backing to its device
// latency profile; NewSession rejects anything else.
var backingProfiles = map[Backing]blockdev.Profile{
	"":         blockdev.RAMProfile,
	BackingRAM: blockdev.RAMProfile,
	BackingSSD: blockdev.SSDProfile,
	BackingHDD: blockdev.HDDProfile,
}

func (s *Session) deviceFor(idx int, ts TargetSpec, size int64) *blockdev.Disk {
	d := blockdev.NewDisk(fmt.Sprintf("ram%d", idx), size, backingProfiles[ts.Backing], s.clock)
	d.SetObs(s.obsHub)
	return d
}

// mtdEraseSize is the erase-block size of the flash behind jffs2 targets.
const mtdEraseSize = 8 * 1024

// targetKinds is what NewSession accepts per TargetSpec.Kind: the seeded
// bugs the kind implements, its default device size (the paper's 256 KB
// ext devices, XFS's 16 MiB minimum, §6) and the unit a device size must
// be a multiple of (0: the kind has no device).
var targetKinds = map[string]struct {
	bugs       []string
	size, unit int64
}{
	"ext2":    {nil, 256 * 1024, 1},
	"ext4":    {[]string{BugJournalCommitFirst}, 256 * 1024, 1},
	"xfs":     {nil, xfssim.MinVolumeSize, 1},
	"jffs2":   {nil, 256 * 1024, mtdEraseSize},
	"verifs1": {[]string{BugTruncateNoZero, BugNoCacheInvalidate}, 0, 0},
	"verifs2": {[]string{BugWriteHoleNoZero, BugSizeUpdateOnOverflow, BugNoCacheInvalidate}, 0, 0},
}

// checkTarget rejects a spec no target can be built from. Specs arrive
// from flags and from a bundle's config.json, so a bad one is an error,
// never a panic in a device constructor — and never a run that silently
// ignores the bug or device setting it was asked for.
func checkTarget(ts TargetSpec) error {
	kind, ok := targetKinds[ts.Kind]
	if !ok {
		return fmt.Errorf("mcfs: unknown target kind %q", ts.Kind)
	}
	if _, ok := backingProfiles[ts.Backing]; !ok {
		return fmt.Errorf("mcfs: unknown backing %q (want ram, ssd, or hdd)", ts.Backing)
	}
	for _, b := range ts.Bugs {
		if !slices.Contains(kind.bugs, b) {
			return fmt.Errorf("mcfs: %s does not support bug %q", ts.Kind, b)
		}
	}
	if kind.unit == 0 && ts.DeviceSize != 0 {
		return fmt.Errorf("mcfs: %s has no device: device size %d would be ignored", ts.Kind, ts.DeviceSize)
	}
	if kind.unit == 0 && ts.DiskOnlyTracking {
		return fmt.Errorf("mcfs: %s has no device: disk-only tracking would be ignored", ts.Kind)
	}
	if ts.DeviceSize < 0 || kind.unit > 0 && ts.DeviceSize%kind.unit != 0 {
		return fmt.Errorf("mcfs: %s device size %d: want a positive multiple of %d bytes", ts.Kind, ts.DeviceSize, kind.unit)
	}
	if ts.DeviceSize > maxDeviceSize {
		return fmt.Errorf("mcfs: %s device size %d: above the %d-byte maximum", ts.Kind, ts.DeviceSize, maxDeviceSize)
	}
	return nil
}

// maxDeviceSize bounds TargetSpec.DeviceSize: a device holds only the
// pages written to it, but its page table grows with its size, and the
// largest any target needs is xfs's 16 MiB minimum.
const maxDeviceSize = 1 << 30

// crashEligible reports whether ts can host a crash plane: the probe's
// remount bracketing and power-cycle semantics require per-op remounts
// and full (device-level) state tracking.
func crashEligible(ts TargetSpec) bool {
	return !ts.DisablePerOpRemount && !ts.DiskOnlyTracking
}

// mountTarget checks the spec, builds its device, formats it and mounts
// the file system at tgt's mount point. With crash set, kinds that can be
// crash-tested also get a fault injector on their media and return their
// crash plane. How much a plane promises after a power cut is the kind's:
// ext4's journal guarantees the pre-op or post-op state exactly (Strict,
// backed by fsck), ext2 and jffs2 only a mountable, recoverable volume.
func (s *Session) mountTarget(tgt checker.Target, ts TargetSpec, idx int, crash bool) (*mc.CrashPlane, error) {
	if err := checkTarget(ts); err != nil {
		return nil, err
	}
	clock := s.clock
	k := s.kern
	point := tgt.MountPoint
	size := ts.DeviceSize
	if size == 0 {
		size = targetKinds[ts.Kind].size
	}
	switch ts.Kind {
	case "ext2", "ext4":
		// One mount cache per device: every remount of the same validated
		// geometry — per-op brackets, backtracking restores, crash-probe
		// power cycles — pays warm-mount CPU instead of full validation.
		mopts := extfs.MountOpts{
			Cache:              extfs.NewMountCache(),
			JournalCommitFirst: slices.Contains(ts.Bugs, BugJournalCommitFirst),
		}
		dev := s.deviceFor(idx, ts, size)
		if err := extfs.Mkfs(dev, extfs.MkfsOptions{Journal: ts.Kind == "ext4"}); err != nil {
			return nil, err
		}
		err := k.Mount(point, kernel.FilesystemSpec{
			Type:      ts.Kind,
			Dev:       dev,
			Mounter:   func() (vfs.FS, error) { return extfs.MountWith(dev, clock, mopts) },
			Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
		}, kernel.MountOptions{})
		if err != nil || !crash {
			return nil, err
		}
		inj := fault.New()
		dev.SetInjector(inj)
		mask, err := extfs.StateCompareMask(dev)
		if err != nil {
			return nil, fmt.Errorf("mcfs: computing %s compare mask: %w", ts.Kind, err)
		}
		plane := &mc.CrashPlane{Target: idx, Name: tgt.Name, Mount: point,
			Injector: inj, Media: dev, Mask: mask, Strict: ts.Kind == "ext4"}
		if plane.Strict {
			plane.Fsck = func() []string {
				probs, err := extfs.Fsck(dev)
				if err != nil {
					return []string{fmt.Sprintf("fsck error: %v", err)}
				}
				out := make([]string, len(probs))
				for i, p := range probs {
					out[i] = p.String()
				}
				return out
			}
		}
		return plane, nil
	case "xfs":
		dev := s.deviceFor(idx, ts, size)
		if err := xfssim.Mkfs(dev); err != nil {
			return nil, err
		}
		return nil, k.Mount(point, kernel.FilesystemSpec{
			Type:      "xfs",
			Dev:       dev,
			Mounter:   func() (vfs.FS, error) { return xfssim.Mount(dev, clock) },
			Unmounter: func(f vfs.FS) error { return f.(*xfssim.FS).Unmount() },
		}, kernel.MountOptions{})
	case "jffs2":
		// JFFS2 mounts on an MTD device (mtdram), which is also the medium
		// state tracking checkpoints: the copy the paper takes through the
		// mtdblock bridge (§4) is what its frames are charged.
		mtd := blockdev.NewMTD(fmt.Sprintf("mtd%d", idx), size, mtdEraseSize, clock)
		mtd.SetObs(s.obsHub)
		if err := jffs2sim.Mkfs(mtd); err != nil {
			return nil, err
		}
		// One scan cache per flash: every mount is charged the full scan,
		// and parses the erase blocks that changed since the last one.
		scans := jffs2sim.NewScanCache()
		err := k.Mount(point, kernel.FilesystemSpec{
			Type:      "jffs2",
			Dev:       mtd,
			Mounter:   func() (vfs.FS, error) { return jffs2sim.MountCached(mtd, clock, scans) },
			Unmounter: func(f vfs.FS) error { return f.(*jffs2sim.FS).Unmount() },
		}, kernel.MountOptions{})
		if err != nil || !crash {
			return nil, err
		}
		inj := fault.New()
		mtd.SetInjector(inj)
		return &mc.CrashPlane{Target: idx, Name: tgt.Name, Mount: point, Injector: inj, Media: mtd}, nil
	default: // verifs1, verifs2: checkTarget admits no other kind
		var backing vfs.FS
		if ts.Kind == "verifs1" {
			var o []verifs1.Option
			if slices.Contains(ts.Bugs, BugTruncateNoZero) {
				o = append(o, verifs1.WithTruncateBug())
			}
			backing = verifs1.New(clock, o...)
		} else {
			var o []verifs2.Option
			if slices.Contains(ts.Bugs, BugWriteHoleNoZero) {
				o = append(o, verifs2.WithHoleBug())
			}
			if slices.Contains(ts.Bugs, BugSizeUpdateOnOverflow) {
				o = append(o, verifs2.WithSizeBug())
			}
			backing = verifs2.New(clock, o...)
		}
		client := fuse.NewClient(fuse.NewServer(backing, fuse.ServerOptions{
			SkipInvalidateOnRestore: slices.Contains(ts.Bugs, BugNoCacheInvalidate),
		}), clock)
		client.SetObs(s.obsHub)
		return nil, k.Mount(point, kernel.FilesystemSpec{
			Type:    ts.Kind,
			Mounter: func() (vfs.FS, error) { return client, nil },
		}, kernel.MountOptions{})
	}
}

func (s *Session) trackerFor(point string, ts TargetSpec, vmGroup **tracker.VMGroup) (tracker.Tracker, error) {
	var tr tracker.Tracker
	switch ts.Kind {
	case "verifs1", "verifs2":
		tr = tracker.NewCheckpoint(s.kern, point)
	case "ext2", "ext4", "xfs", "jffs2":
		if ts.DiskOnlyTracking {
			tr = tracker.NewDiskOnly(s.kern, point)
		} else {
			tr = tracker.NewRemount(s.kern, point, !ts.DisablePerOpRemount)
		}
	default:
		return nil, fmt.Errorf("mcfs: unknown target kind %q", ts.Kind)
	}
	if ts.VMSnapshot {
		if *vmGroup == nil {
			*vmGroup = tracker.NewVMGroup(s.kern)
		}
		tr = tracker.NewVMSnapshot(*vmGroup, tr)
	}
	return tr, nil
}

// Run performs the exploration and returns the result. Run may be called
// once per session; build a fresh session for a fresh run.
func (s *Session) Run() Result {
	res := mc.Run(s.cfg)
	if s.set != nil {
		// The session's own set is the authoritative visited knowledge;
		// export it for resume (reduced-fidelity backends refuse with a
		// typed error the result carries instead of a snapshot).
		res.Resume, res.ResumeErr = mc.ExportResume(s.set)
	}
	return res
}

// newGovernedSet builds the visited set a reduced-fidelity backend or
// an armed memory budget calls for: the kind's table, and under a
// budget a governor that degrades it (the bitstate array a downgrade
// ends in defaults to a quarter of the budget), reporting through
// hooks. With the exact kind and no budget there is nothing to build —
// nil: the engine explores against its private exact set, or a swarm
// against a plain shared one.
func newGovernedSet(kind string, bitstateBytes, budget int64, hooks visited.Hooks) (*visited.Set, error) {
	if (kind == "" || kind == VisitedExact) && budget <= 0 {
		return nil, nil
	}
	tbl, err := visited.NewTable(visited.Kind(kind), bitstateBytes)
	if err != nil {
		return nil, err
	}
	set := visited.NewSet(tbl)
	if budget > 0 {
		if bitstateBytes <= 0 {
			bitstateBytes = budget / 4
		}
		visited.NewGovernor(set, visited.GovernorConfig{BitstateBytes: bitstateBytes, Hooks: hooks})
	}
	return set, nil
}

// governorHooks wires a governor's degradation events into the
// observability plane: fidelity/omission gauges on every hub, the
// eviction and downgrade counters on the first non-nil hub only (Merge
// sums counters across hubs, so billing them everywhere would
// double-count), and a fidelity-degraded event on the stream bus, from
// worker 0: the set is a session's own or the whole swarm's. hubs
// is asked at event time — a swarm's worker hubs exist only once their
// sessions have been built.
func governorHooks(hubs func() []*obs.Hub, bus *Stream) visited.Hooks {
	first := func(hs []*obs.Hub) *obs.Hub {
		for _, h := range hs {
			if h != nil {
				return h
			}
		}
		return nil
	}
	return visited.Hooks{
		OnEvict: func(n, depth int) {
			first(hubs()).Counter(obs.MetricVisitedEvictions).Add(int64(n))
		},
		OnDowngrade: func(from, to Fidelity, omission float64) {
			hs := hubs()
			for _, h := range hs {
				h.Gauge(obs.MetricVisitedFidelity).Set(int64(to))
				h.Gauge(obs.MetricVisitedOmissionPPM).Set(int64(omission * 1e6))
			}
			first(hs).Counter(obs.MetricFidelityDowngrades).Inc()
			bus.Publish(stream.Event{
				Kind:   stream.KindFidelityDegraded,
				Detail: fmt.Sprintf("%s->%s p≈%.3g", from, to, omission),
			})
		},
	}
}

// VerifyTrail replays trail against the session's fresh targets and
// reports the first discrepancy and whether it reproduces the wanted one
// (any discrepancy when want is nil, otherwise one of the same kind).
// With a non-nil crash spec the prefix executes normally, then the final
// operation is crash-tested on the spec'd target at the spec'd write
// index; the session must then have been built with CrashExploration
// (the crash planes carry the fault injectors). See mc.VerifyTrail.
func (s *Session) VerifyTrail(trail []Op, crash *CrashSpec, want *Discrepancy) (*Discrepancy, bool, error) {
	return mc.VerifyTrail(s.cfg, trail, crash, want)
}

// ReplayJournal re-executes a flight-recorder journal against this
// (fresh) session, verifying every recorded errno and state hash — and
// the recorded bug, if any — reproduces. See mc.ReplayJournal.
func (s *Session) ReplayJournal(recs []journal.Record) (ReplayReport, error) {
	return mc.ReplayJournal(s.cfg, recs)
}

// Kernel exposes the session's simulated kernel for direct syscall use
// (examples and tests drive file systems through it).
func (s *Session) Kernel() *kernel.Kernel { return s.kern }

// Clock returns the session's virtual clock.
func (s *Session) Clock() *simclock.Clock { return s.clock }

// Config exposes the underlying engine configuration (benchmarks tune
// it).
func (s *Session) Config() *mc.Config { return &s.cfg }

// MemoryStats reports the memory model's occupancy; zero Stats when the
// session runs without a memory model.
func (s *Session) MemoryStats() memmodel.Stats {
	if s.mem == nil {
		return memmodel.Stats{}
	}
	return s.mem.Stats()
}

// Close releases nothing: a session holds no goroutine, file or other
// resource the garbage collector does not reclaim. It stays for the
// callers that pair it with NewSession.
func (s *Session) Close() {}

// DefaultMemoryConfig returns the memory-model configuration matching
// the paper's evaluation VM (64 GB RAM, 128 GB swap on SSD).
func DefaultMemoryConfig() memmodel.Config { return memmodel.DefaultConfig() }

// SwarmRun runs base as a coordinated swarm (Spin's swarm verification,
// §2, with pFSCK-style coordination): base.Workers diversified sessions,
// a shared cancellation token stopping every worker at the first bug or
// failure, and optionally one shared visited table. Every worker gets
// fully independent file system instances and its own virtual clock;
// worker w (1..Workers) runs base with Seed w, a recorder on base's
// Journal and id w on base's Stream, and without base's Obs, which
// perWorker, when non-nil, replaces: it is called with each
// worker's spec, in worker order, before any worker runs, to attach that
// worker's hub or memory model.
func SwarmRun(base Options, perWorker func(worker int, o *Options) error) (SwarmResult, error) {
	return runSwarm(base, perWorker, nil)
}

// runSwarm is SwarmRun plus inspect, which (when non-nil) sees the
// workers' sessions after the run and before they are closed. It is the
// one owner of a swarm's session list.
func runSwarm(base Options, perWorker func(int, *Options) error, inspect func([]*Session)) (SwarmResult, error) {
	// Every worker's spec — its hub above all — is settled before any
	// worker runs: the fastest worker can degrade the shared set while the
	// others are still formatting their devices, and that event must find
	// every hub.
	specs := make([]Options, max(base.Workers, 0))
	hubs := make([]*obs.Hub, len(specs))
	for w := range specs {
		o := base
		// The coordinator hands each worker its recorder on the journal
		// and its worker id on the stream.
		o.Seed = int64(w + 1)
		o.Journal, o.Obs, o.Stream = nil, nil, nil
		if perWorker != nil {
			if err := perWorker(w+1, &o); err != nil {
				return SwarmResult{BugWorker: -1, ErrWorker: -1}, fmt.Errorf("mcfs: swarm worker %d: %w", w+1, err)
			}
		}
		specs[w], hubs[w] = o, o.Obs
	}
	// One swarm-wide set when a reduced backend or a budget asks for it;
	// its degradation hooks fan out over the worker hubs.
	shared, err := newGovernedSet(base.Visited, base.BitstateBytes, base.MemBudget,
		governorHooks(func() []*obs.Hub { return hubs }, base.Stream))
	if err != nil {
		return SwarmResult{BugWorker: -1, ErrWorker: -1}, err
	}
	var mu sync.Mutex
	var sessions []*Session
	sr, err := mc.SwarmRun(mc.SwarmOptions{
		Workers:      base.Workers,
		ShareVisited: base.ShareVisited,
		Shared:       shared,
		Resume:       base.Resume,
		Cancel:       base.Cancel,
		Journal:      base.Journal,
		Stream:       base.Stream,
	}, func(seed int64) (mc.Config, error) {
		// The swarm owns the one shared set, and workers arm their own
		// memory budgets against it.
		o := specs[seed-1]
		o.shared = shared
		s, err := NewSession(o)
		if err != nil {
			return mc.Config{}, err
		}
		mu.Lock()
		sessions = append(sessions, s)
		mu.Unlock()
		return s.cfg, nil
	})
	// Every worker has returned; the list is quiescent.
	if inspect != nil {
		inspect(sessions)
	}
	return sr, err
}

// Verify re-checks that all targets currently agree, returning the
// discrepancy if they do not. Useful after driving targets manually via
// Kernel().
func (s *Session) Verify() (*Discrepancy, error) {
	d, _, e := s.check.CheckAndHash("verify")
	if e != errno.OK {
		return nil, fmt.Errorf("mcfs: verify: %w", e)
	}
	return d, nil
}

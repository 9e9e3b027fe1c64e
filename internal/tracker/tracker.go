// Package tracker implements the state capture/restore strategies MCFS
// needs for backtracking search, one per approach the paper discusses:
//
//   - Remount (§3.2/§4): the workaround for in-kernel file systems —
//     snapshot the backing device image (Spin mmaps the device), and
//     restore by unmount + device restore + remount. Optionally remounts
//     around every operation, the paper's default policy whose cost §6
//     measures; disabling it is the E3 ablation.
//   - DiskOnly (§3.2): the broken compromise that tracks only persistent
//     state. Restoring the device under a live mount desynchronizes the
//     kernel's and file system's in-memory state and corrupts the volume;
//     kept so the failure is demonstrable (experiment E8).
//   - Checkpoint (§5): the paper's proposal — the file system itself
//     implements ioctl_CHECKPOINT / ioctl_RESTORE (VeriFS), so capture
//     and restore are cheap in-memory operations with cache invalidation
//     built in.
//   - VMSnapshot (§5): hypervisor-level snapshotting; correct but slow —
//     LightVM-class latencies (30 ms checkpoint, 20 ms restore) cap
//     exploration at 20-30 ops/s.
//   - ProcessSnapshot (§5): CRIU-style user-space process checkpointing;
//     refuses any process holding character or block devices open (so it
//     cannot handle FUSE servers, which hold /dev/fuse), but works for a
//     plain user-space server like NFS-Ganesha.
package tracker

import (
	"fmt"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/obs"
	"mcfs/internal/vfs"
)

// Tracker saves and restores the complete state of one file system under
// test. Restore consumes the checkpoint (mirroring VeriFS's
// ioctl_RESTORE semantics); the explorer re-checkpoints when it needs to
// return to the same state again.
//
// Checkpoints nest. The explorer takes them along one DFS path — every
// key younger than k is restored or discarded before k is — and the
// device-backed trackers rely on it: restoring a key closes every
// checkpoint taken after it, whose keys then restore nothing. Discard
// works on any open key, in any order. What a checkpoint and a restore
// CHARGE the virtual clock is the paper's whole-image copy each way for a
// device, and one ioctl for VeriFS, whose StateBytes still sizes the
// whole state. What they COPY is the pages written while the checkpoint
// was open (the devices' undo frames, blockdev/undo.go) or, for VeriFS,
// the inode array or map: the snapshot shares every inode with the live
// file system until an op's first write copies it, and a restore adopts
// the snapshot. VeriFS2 keeps atime beside the shared inode, so the reads
// of a state check copy nothing.
type Tracker interface {
	// Name identifies the strategy in logs.
	Name() string
	// Checkpoint saves the file system's full state under key.
	Checkpoint(key uint64) error
	// Restore brings back the state saved under key, discarding it and
	// every checkpoint taken since.
	Restore(key uint64) error
	// Discard drops the checkpoint under key without restoring.
	Discard(key uint64)
	// PreOp runs before each explored operation.
	PreOp() error
	// PostOp runs after each explored operation.
	PostOp() error
	// StateBytes estimates the size of one concrete state, feeding the
	// memory model.
	StateBytes() int64
}

// ObsSetter is implemented by trackers that record checkpoint/restore
// latency histograms and spans into an observability hub; MCFS attaches
// the session hub through it.
type ObsSetter interface {
	SetObs(h *obs.Hub)
}

// obsInstruments holds one tracker's observability handles. The zero
// value (hub nil) is a valid no-op; checkpoint/restore latency is THE
// metric that decides model-checking throughput, so every tracker
// carries one of these. Span names are built once, at attach.
type obsInstruments struct {
	hub                         *obs.Hub
	checkpointSpan, restoreSpan string
	checkpoint, restore         *obs.Histogram
}

func (in *obsInstruments) attach(h *obs.Hub, name string) {
	in.hub = h
	in.checkpointSpan, in.restoreSpan = "checkpoint:"+name, "restore:"+name
	in.checkpoint = h.Histogram("tracker." + name + ".checkpoint")
	in.restore = h.Histogram("tracker." + name + ".restore")
}

// beginCheckpoint and beginRestore open a timed tracker span; its End
// records the latency histogram too.
func (in *obsInstruments) beginCheckpoint() obs.SpanHandle {
	return in.hub.StartTimed(obs.LayerTracker, in.checkpointSpan, in.checkpoint)
}

func (in *obsInstruments) beginRestore() obs.SpanHandle {
	return in.hub.StartTimed(obs.LayerTracker, in.restoreSpan, in.restore)
}

// --- Device frames ---------------------------------------------------------

// deviceFrames is the half the two device-backed trackers share: a
// checkpoint syncs the mount and opens an undo frame on its device, a
// discard closes one, and a concrete state is the device image. How a
// frame is restored is each tracker's own.
type deviceFrames struct {
	k     *kernel.Kernel
	point string
	// dev is the mount's device, which holds the checkpoints; kept from
	// the first Checkpoint on because Restore and Discard must reach it
	// while the file system is unmounted.
	dev blockdev.Device
	// stateCPU charges a checkpoint the model checker's own cost of
	// handling the state vector.
	stateCPU bool
	obs      obsInstruments
}

// stateCPUPerKiB is the model checker's own cost of handling a concrete
// state vector (copying the mmap'd image into the state vector, COLLAPSE
// compression, compares). Spin compresses large vectors, so the charge
// is capped at stateCPUCap.
const (
	stateCPUPerKiB = 1200 * time.Nanosecond
	stateCPUCap    = 1 << 20
)

func (t *deviceFrames) mount() (*kernel.Mount, error) {
	m, _, e := t.k.MountAt(t.point)
	if e != errno.OK {
		return nil, fmt.Errorf("tracker: %s not mounted", t.point)
	}
	return m, nil
}

// Checkpoint implements Tracker: flush everything to the device (sync
// suffices — data is write-through and sync writes back all dirty
// metadata), then checkpoint the image.
func (t *deviceFrames) Checkpoint(key uint64) error {
	defer t.obs.beginCheckpoint().End()
	m, err := t.mount()
	if err != nil {
		return err
	}
	dev := m.Dev()
	if dev == nil {
		return fmt.Errorf("tracker: device tracking needs a device-backed mount")
	}
	if e := t.k.SyncFS(t.point); e != errno.OK {
		return e
	}
	if err := dev.OpenFrame(key); err != nil {
		return err
	}
	if t.stateCPU {
		t.k.Clock().Advance(time.Duration(min(dev.Size(), stateCPUCap)/1024) * stateCPUPerKiB)
	}
	t.dev = dev
	return nil
}

// frame checks that key names an open checkpoint.
func (t *deviceFrames) frame(key uint64) error {
	if t.dev == nil || !t.dev.HasFrame(key) {
		return fmt.Errorf("tracker: no snapshot under key %d", key)
	}
	return nil
}

// Discard implements Tracker.
func (t *deviceFrames) Discard(key uint64) {
	if t.dev != nil {
		t.dev.CloseFrame(key)
	}
}

// StateBytes implements Tracker: a concrete state is the device image.
func (t *deviceFrames) StateBytes() int64 {
	m, err := t.mount()
	if err != nil || m.Dev() == nil {
		return 0
	}
	return m.Dev().Size()
}

// --- Remount tracker -------------------------------------------------------

// RemountTracker tracks a device-backed file system by checkpointing the
// device image, restoring state via unmount / device-rewind / remount.
type RemountTracker struct {
	deviceFrames
	perOpRemnts bool
}

// SetObs implements ObsSetter.
func (t *RemountTracker) SetObs(h *obs.Hub) { t.obs.attach(h, t.Name()) }

// NewRemount builds a remount tracker for the mount at point.
// perOpRemounts enables the paper's default unmount/remount around every
// operation.
func NewRemount(k *kernel.Kernel, point string, perOpRemounts bool) *RemountTracker {
	return &RemountTracker{deviceFrames: deviceFrames{k: k, point: point, stateCPU: true}, perOpRemnts: perOpRemounts}
}

// Name implements Tracker.
func (t *RemountTracker) Name() string { return "remount" }

// Restore implements Tracker: unmount (dropping all in-memory state),
// rewind the device image, and mount fresh — the only way to guarantee
// no stale state remains in kernel memory (§3.2).
//
// The model checker's own cost of handling the restored state vector
// (the checkpoint's stateCPU) has never been charged on this side: the
// call that once stood after the rewind ran while the point was empty,
// when StateBytes answers 0. Charging it would move every remount-tracked
// rate, so it stays uncharged until the cost model is reconciled
// (EXPERIMENTS.md).
func (t *RemountTracker) Restore(key uint64) error {
	defer t.obs.beginRestore().End()
	if err := t.frame(key); err != nil {
		return err
	}
	return t.k.RemountWith(t.point, func() error { return t.dev.RewindFrame(key) })
}

// PreOp implements Tracker: remount before the operation when enabled.
func (t *RemountTracker) PreOp() error {
	if !t.perOpRemnts {
		return nil
	}
	return t.k.Remount(t.point)
}

// PostOp implements Tracker: remount after the operation when enabled.
func (t *RemountTracker) PostOp() error {
	if !t.perOpRemnts {
		return nil
	}
	return t.k.Remount(t.point)
}

// --- DiskOnly tracker --------------------------------------------------------

// DiskOnlyTracker tracks only the persistent state: it snapshots and
// restores the device image with NO unmount and NO cache invalidation.
// This is the compromise §3.2 describes — it runs, but restoring desyncs
// the kernel and file system caches from the disk and corrupts the
// volume. It exists to demonstrate that failure (experiment E8); do not
// use it for real checking.
type DiskOnlyTracker struct{ deviceFrames }

// SetObs implements ObsSetter.
func (t *DiskOnlyTracker) SetObs(h *obs.Hub) { t.obs.attach(h, t.Name()) }

// NewDiskOnly builds the broken disk-only tracker.
func NewDiskOnly(k *kernel.Kernel, point string) *DiskOnlyTracker {
	return &DiskOnlyTracker{deviceFrames{k: k, point: point}}
}

// Name implements Tracker.
func (t *DiskOnlyTracker) Name() string { return "disk-only" }

// Restore implements Tracker: rewind the device image underneath the
// live mount. The mounted file system's cached metadata is now stale —
// the §3.2 corruption in action.
func (t *DiskOnlyTracker) Restore(key uint64) error {
	defer t.obs.beginRestore().End()
	if err := t.frame(key); err != nil {
		return err
	}
	if _, err := t.mount(); err != nil {
		return err
	}
	return t.dev.RewindFrame(key)
}

// PreOp implements Tracker.
func (t *DiskOnlyTracker) PreOp() error { return nil }

// PostOp implements Tracker.
func (t *DiskOnlyTracker) PostOp() error { return nil }

// --- Checkpoint tracker -----------------------------------------------------

// CheckpointTracker uses the paper's proposed APIs: the file system
// itself checkpoints and restores its complete state via
// ioctl_CHECKPOINT / ioctl_RESTORE. No unmounts, no device I/O, and the
// FUSE server has the kernel drop its caches after a restore (§5).
type CheckpointTracker struct {
	k     *kernel.Kernel
	point string
	obs   obsInstruments
}

// SetObs implements ObsSetter.
func (t *CheckpointTracker) SetObs(h *obs.Hub) { t.obs.attach(h, t.Name()) }

// NewCheckpoint builds a checkpoint tracker for a file system that
// implements vfs.Checkpointer (VeriFS1/VeriFS2, directly or over FUSE).
func NewCheckpoint(k *kernel.Kernel, point string) *CheckpointTracker {
	return &CheckpointTracker{k: k, point: point}
}

// Name implements Tracker.
func (t *CheckpointTracker) Name() string { return "checkpoint-api" }

// Checkpoint implements Tracker via ioctl_CHECKPOINT.
func (t *CheckpointTracker) Checkpoint(key uint64) error {
	defer t.obs.beginCheckpoint().End()
	if e := t.k.Ioctl(t.point, vfs.IoctlCheckpoint, key); e != errno.OK {
		return e
	}
	return nil
}

// Restore implements Tracker via ioctl_RESTORE (which also discards the
// snapshot; over FUSE, the server's notification drops the kernel
// caches).
func (t *CheckpointTracker) Restore(key uint64) error {
	defer t.obs.beginRestore().End()
	if e := t.k.Ioctl(t.point, vfs.IoctlRestore, key); e != errno.OK {
		return e
	}
	return nil
}

// Discard implements Tracker via ioctl_DISCARD: the file system drops
// the snapshot-pool entry without restoring it. The errno is ignored:
// ENOENT means only that this target never took the key.
func (t *CheckpointTracker) Discard(key uint64) {
	_ = t.k.Ioctl(t.point, vfs.IoctlDiscard, key) // ENOENT: this target never took the key
}

// PreOp implements Tracker: no remounts needed (§5).
func (t *CheckpointTracker) PreOp() error { return nil }

// PostOp implements Tracker.
func (t *CheckpointTracker) PostOp() error { return nil }

// stateByteser is implemented by the VeriFS instances.
type stateByteser interface{ StateBytes() int64 }

// StateBytes implements Tracker.
func (t *CheckpointTracker) StateBytes() int64 {
	m, _, e := t.k.MountAt(t.point)
	if e != errno.OK {
		return 0
	}
	if sb, ok := m.FS().(stateByteser); ok {
		return sb.StateBytes()
	}
	return 0
}

// --- VM snapshot tracker ------------------------------------------------------

// LightVM-class latencies (§5: "30ms to checkpoint a trivial unikernel VM
// and 20ms to restore it").
const (
	VMCheckpointLatency = 30 * time.Millisecond
	VMRestoreLatency    = 20 * time.Millisecond
)

// VMGroup represents one virtual machine containing every file system
// under test: a single VM snapshot captures all of them at once, so the
// hypervisor latency is charged once per checkpoint/restore event no
// matter how many targets share the VM.
type VMGroup struct {
	k                 *kernel.Kernel
	lastCheckpointKey uint64
	lastRestoreKey    uint64
	haveCheckpoint    bool
	haveRestore       bool
}

// NewVMGroup returns a VM shared by all targets of a session.
func NewVMGroup(k *kernel.Kernel) *VMGroup { return &VMGroup{k: k} }

func (g *VMGroup) chargeCheckpoint(key uint64) {
	if g.haveCheckpoint && g.lastCheckpointKey == key {
		return // same VM snapshot covers this target too
	}
	g.haveCheckpoint = true
	g.lastCheckpointKey = key
	g.k.Clock().Advance(VMCheckpointLatency)
}

func (g *VMGroup) chargeRestore(key uint64) {
	if g.haveRestore && g.lastRestoreKey == key {
		return
	}
	g.haveRestore = true
	g.lastRestoreKey = key
	g.k.Clock().Advance(VMRestoreLatency)
}

// VMSnapshotTracker snapshots "the whole VM": functionally it delegates
// to an inner tracker (the VM image contains everything, so correctness
// is free), but each checkpoint/restore event pays hypervisor latency.
// That latency is what limited the paper's exploration to 20-30 ops/s.
type VMSnapshotTracker struct {
	inner Tracker
	group *VMGroup
	obs   obsInstruments
}

// SetObs implements ObsSetter, instrumenting both the VM layer and the
// wrapped tracker (their histogram names differ by tracker name).
func (t *VMSnapshotTracker) SetObs(h *obs.Hub) {
	t.obs.attach(h, t.Name())
	if s, ok := t.inner.(ObsSetter); ok {
		s.SetObs(h)
	}
}

// NewVMSnapshot wraps inner with VM snapshot latencies charged through
// the shared group.
func NewVMSnapshot(group *VMGroup, inner Tracker) *VMSnapshotTracker {
	return &VMSnapshotTracker{inner: inner, group: group}
}

// Name implements Tracker.
func (t *VMSnapshotTracker) Name() string { return "vm-snapshot" }

// Checkpoint implements Tracker, charging the hypervisor checkpoint
// latency (once per event across the VM's targets).
func (t *VMSnapshotTracker) Checkpoint(key uint64) error {
	defer t.obs.beginCheckpoint().End()
	t.group.chargeCheckpoint(key)
	return t.inner.Checkpoint(key)
}

// Restore implements Tracker, charging the hypervisor restore latency.
func (t *VMSnapshotTracker) Restore(key uint64) error {
	defer t.obs.beginRestore().End()
	t.group.chargeRestore(key)
	return t.inner.Restore(key)
}

// Discard implements Tracker.
func (t *VMSnapshotTracker) Discard(key uint64) { t.inner.Discard(key) }

// PreOp implements Tracker (no per-op work: the VM captures everything).
func (t *VMSnapshotTracker) PreOp() error { return nil }

// PostOp implements Tracker.
func (t *VMSnapshotTracker) PostOp() error { return nil }

// StateBytes implements Tracker: a VM image is much larger than the file
// system state alone.
func (t *VMSnapshotTracker) StateBytes() int64 {
	const vmOverhead = 32 << 20 // guest kernel + userspace working set
	return t.inner.StateBytes() + vmOverhead
}

package tracker

import (
	"fmt"
	"time"

	"mcfs/internal/obs"
)

// This file implements CRIU-style process snapshotting (§5): MCFS could
// in principle capture a user-space file system's in-memory state by
// checkpointing its process. The paper found that CRIU "refused to
// checkpoint processes that have opened or mapped any character or block
// device (with a few unhelpful exceptions)" — FUSE servers always hold
// /dev/fuse, so this path fails for them, while a plain user-space NFS
// server (Ganesha) checkpoints fine.

// Process is what the CRIU tracker inspects before dumping: a process
// identity plus the special device files it holds open.
type Process interface {
	// ProcessName identifies the process in logs.
	ProcessName() string
	// OpenDeviceFiles lists character/block device files the process has
	// open or mapped.
	OpenDeviceFiles() []string
}

// MemoryImager is the dump/restore half: processes that can serialize
// their full memory image implement it. (Real CRIU reads /proc/<pid>;
// the simulation asks the process itself.)
type MemoryImager interface {
	// SaveImage captures the process's complete memory state.
	SaveImage() (image any, size int64, err error)
	// LoadImage replaces the process's memory state with a saved image.
	LoadImage(image any) error
}

// ErrDeviceFilesOpen is returned when the target holds device files open,
// mirroring CRIU's refusal.
type ErrDeviceFilesOpen struct {
	Process string
	Devices []string
}

func (e *ErrDeviceFilesOpen) Error() string {
	return fmt.Sprintf("criu: refusing to checkpoint %s: device files open: %v", e.Process, e.Devices)
}

// CRIU dump/restore latencies: dominated by walking /proc and writing
// image files; far cheaper than a VM snapshot but far more than an ioctl.
const (
	criuDumpLatency    = 8 * time.Millisecond
	criuRestoreLatency = 6 * time.Millisecond
)

// clockAdvancer matches *simclock.Clock without importing it here.
type clockAdvancer interface {
	Advance(d time.Duration) time.Duration
}

// ProcessSnapshotTracker checkpoints a user-space server process the way
// CRIU would.
type ProcessSnapshotTracker struct {
	proc  Process
	clock clockAdvancer
	obs   obsInstruments

	images map[uint64]savedImage
}

// SetObs implements ObsSetter.
func (t *ProcessSnapshotTracker) SetObs(h *obs.Hub) { t.obs.attach(h, t.Name()) }

type savedImage struct {
	img  any
	size int64
}

// NewProcessSnapshot builds a CRIU-style tracker around proc. The clock
// may be nil (no latency accounting).
func NewProcessSnapshot(proc Process, clock clockAdvancer) *ProcessSnapshotTracker {
	return &ProcessSnapshotTracker{proc: proc, clock: clock, images: make(map[uint64]savedImage)}
}

// Name implements Tracker.
func (t *ProcessSnapshotTracker) Name() string { return "process-snapshot" }

func (t *ProcessSnapshotTracker) charge(d time.Duration) {
	if t.clock != nil {
		t.clock.Advance(d)
	}
}

// Checkpoint implements Tracker. It refuses processes holding device
// files, exactly like CRIU refused the paper's FUSE servers.
func (t *ProcessSnapshotTracker) Checkpoint(key uint64) error {
	defer t.obs.beginCheckpoint().End()
	if devs := t.proc.OpenDeviceFiles(); len(devs) > 0 {
		return &ErrDeviceFilesOpen{Process: t.proc.ProcessName(), Devices: devs}
	}
	mi, ok := t.proc.(MemoryImager)
	if !ok {
		return fmt.Errorf("criu: %s cannot be imaged", t.proc.ProcessName())
	}
	img, size, err := mi.SaveImage()
	if err != nil {
		return err
	}
	t.charge(criuDumpLatency)
	t.images[key] = savedImage{img: img, size: size}
	return nil
}

// Restore implements Tracker.
func (t *ProcessSnapshotTracker) Restore(key uint64) error {
	defer t.obs.beginRestore().End()
	saved, ok := t.images[key]
	if !ok {
		return fmt.Errorf("criu: no image under key %d", key)
	}
	mi, ok := t.proc.(MemoryImager)
	if !ok {
		return fmt.Errorf("criu: %s cannot be imaged", t.proc.ProcessName())
	}
	if err := mi.LoadImage(saved.img); err != nil {
		return err
	}
	t.charge(criuRestoreLatency)
	delete(t.images, key)
	return nil
}

// Discard implements Tracker.
func (t *ProcessSnapshotTracker) Discard(key uint64) { delete(t.images, key) }

// PreOp implements Tracker.
func (t *ProcessSnapshotTracker) PreOp() error { return nil }

// PostOp implements Tracker.
func (t *ProcessSnapshotTracker) PostOp() error { return nil }

// StateBytes implements Tracker: the size of the last captured image.
func (t *ProcessSnapshotTracker) StateBytes() int64 {
	var max int64
	for _, s := range t.images {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

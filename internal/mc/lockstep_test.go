// Lockstep guard for the checkpoint rework: the write-set checkpoints
// (undo frames on the media, adopt-on-restore in VeriFS) run beside the
// thing they replaced — a full copy of the state at every Checkpoint,
// compared after the matching Restore — over real explorations, crash
// probes included. Test-only: production has no such mode.
package mc_test

import (
	"bytes"
	"fmt"
	"testing"

	"mcfs"
	"mcfs/internal/abstraction"
	"mcfs/internal/errno"
	"mcfs/internal/fuse"
	"mcfs/internal/tracker"
)

// lockstepTracker takes a full copy of its target's state beside every
// Checkpoint and compares after the matching Restore.
type lockstepTracker struct {
	tracker.Tracker
	t       *testing.T
	name    string
	observe func() ([]byte, error)
	want    map[uint64][]byte
	checked int
}

func (l *lockstepTracker) Checkpoint(key uint64) error {
	if err := l.Tracker.Checkpoint(key); err != nil {
		return err
	}
	img, err := l.observe()
	if err != nil {
		return fmt.Errorf("lockstep: observing %s at checkpoint %d: %w", l.name, key, err)
	}
	l.want[key] = img
	return nil
}

func (l *lockstepTracker) Restore(key uint64) error {
	if err := l.Tracker.Restore(key); err != nil {
		return err
	}
	got, err := l.observe()
	if err != nil {
		return fmt.Errorf("lockstep: observing %s after restore %d: %w", l.name, key, err)
	}
	if want := l.want[key]; !bytes.Equal(got, want) {
		n := 0
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				n++
			}
		}
		l.t.Errorf("%s: state after Restore(%d) differs from the copy taken at Checkpoint(%d) in %d of %d bytes",
			l.name, key, key, n, len(got))
	}
	delete(l.want, key)
	l.checked++
	return nil
}

func (l *lockstepTracker) Discard(key uint64) {
	l.Tracker.Discard(key)
	delete(l.want, key)
}

// lockstep wraps every tracker of s. A device-backed target is observed
// as its media image, a VeriFS target as its abstract state (the
// inode-level law is internal/tracker's TestRestoreOfCheckpointIsIdentity).
func lockstep(t *testing.T, s *mcfs.Session) []*lockstepTracker {
	t.Helper()
	cfg := s.Config()
	var out []*lockstepTracker
	for i, tgt := range cfg.Checker.Targets() {
		m, _, e := cfg.Kernel.MountAt(tgt.MountPoint)
		if e != errno.OK {
			t.Fatalf("%s not mounted: %v", tgt.Name, e)
		}
		l := &lockstepTracker{Tracker: cfg.Trackers[i], t: t, name: tgt.Name, want: map[uint64][]byte{}}
		if dev := m.Dev(); dev != nil {
			l.observe = dev.Snapshot
		} else {
			point := tgt.MountPoint
			l.observe = func() ([]byte, error) {
				h, e := abstraction.Hash(cfg.Kernel, point, cfg.Checker.AbstractionOptions())
				if e != errno.OK {
					return nil, e
				}
				return h[:], nil
			}
		}
		cfg.Trackers[i] = l
		out = append(out, l)
	}
	return out
}

// assertNoCheckpointState is the leak check on the far side of the
// Tracker interface: after a run, however it ended, no medium holds an
// open undo frame or a byte of pre-images and no VeriFS holds a snapshot.
func assertNoCheckpointState(t *testing.T, s *mcfs.Session) {
	t.Helper()
	cfg := s.Config()
	for _, tgt := range cfg.Checker.Targets() {
		m, _, e := cfg.Kernel.MountAt(tgt.MountPoint)
		if e != errno.OK {
			t.Errorf("%s not mounted after the run: %v", tgt.Name, e)
			continue
		}
		if dev, ok := m.Dev().(interface {
			UndoStats() (frames, arenaBytes int)
		}); ok {
			if frames, arena := dev.UndoStats(); frames != 0 || arena != 0 {
				t.Errorf("%s: medium holds %d open frames and a %d-byte arena after the run, want 0/0", tgt.Name, frames, arena)
			}
		} else if c, ok := m.FS().(*fuse.Client); ok {
			if n := c.Server().Backing().(interface{ SnapshotCount() int }).SnapshotCount(); n != 0 {
				t.Errorf("%s: file system holds %d snapshots after the run, want 0", tgt.Name, n)
			}
		} else {
			t.Errorf("%s: neither a device nor a FUSE mount — what holds its checkpoints?", tgt.Name)
		}
	}
}

func TestLockstepFullCopyAgreesWithWriteSetCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts mcfs.Options
	}{
		// The golden d3 VeriFS exploration and the golden ext crash run.
		{"verifs-d3", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3, MaxOps: 300}},
		{"ext-crash-d1", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
			MaxDepth: 1, CrashExploration: true}},
		// Nested frames on block devices, 256 KiB and 16 MiB.
		{"ext-d3", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
			MaxDepth: 3, MaxOps: 300}},
		{"ext4-xfs-d2", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "xfs"}},
			MaxDepth: 2, MaxOps: 60}},
		// The pinned block-device-plus-flash crash run: power cuts load
		// images through LoadImage/LoadImageDelta under open frames, on
		// Disk and MTD both.
		{"ext4-jffs2-crash-d2", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
			MaxDepth: 2, MaxOps: 1500, CrashExploration: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := mcfs.NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			guards := lockstep(t, s)
			res := s.Run()
			if res.Err != nil || res.Bug != nil {
				t.Fatalf("run under lockstep: err=%v bug=%v", res.Err, res.Bug)
			}
			for _, g := range guards {
				if g.checked == 0 || len(g.want) != 0 {
					t.Errorf("%s: %d restores compared, %d copies never matched to a restore", g.name, g.checked, len(g.want))
				}
			}
			assertNoCheckpointState(t, s)
		})
	}
}

// TestRunLeavesNoCheckpointState drives every way a run can end — space
// exhausted, bug found (normally and by a crash probe, under nested
// frames), budget exhausted mid-depth, and a checkpoint error unwinding
// through Discard — and checks the file systems and media themselves.
// (The VeriFS clean and error runs are swarm_test.go's two leak tests.)
func TestRunLeavesNoCheckpointState(t *testing.T) {
	verifs := func(bugs ...string) []mcfs.TargetSpec {
		return []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2", Bugs: bugs}}
	}
	ext := func(bugs ...string) []mcfs.TargetSpec {
		return []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4", Bugs: bugs}}
	}
	for _, tc := range []struct {
		name    string
		opts    mcfs.Options
		failAt  int // >0: the second tracker's failAt'th Checkpoint fails
		wantBug bool
	}{
		{name: "clean/ext", opts: mcfs.Options{Targets: ext(), MaxDepth: 2}},
		{name: "clean/ext4-jffs2", opts: mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}}, MaxDepth: 2}},
		{name: "bug/verifs", opts: mcfs.Options{Targets: verifs(mcfs.BugWriteHoleNoZero), MaxDepth: 3, MaxOps: 5000}, wantBug: true},
		{name: "bug/ext-crash", opts: mcfs.Options{Targets: ext(mcfs.BugJournalCommitFirst), MaxDepth: 2, MaxOps: 8000, CrashExploration: true}, wantBug: true},
		{name: "budget/verifs", opts: mcfs.Options{Targets: verifs(), MaxDepth: 4, MaxOps: 137}},
		{name: "budget/ext", opts: mcfs.Options{Targets: ext(), MaxDepth: 3, MaxOps: 137}},
		{name: "error/ext", opts: mcfs.Options{Targets: ext(), MaxDepth: 3, MaxOps: 10000}, failAt: 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := mcfs.NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cfg := s.Config()
			a := newLeakTracker(cfg.Trackers[0], 0)
			b := newLeakTracker(cfg.Trackers[1], tc.failAt)
			cfg.Trackers = []tracker.Tracker{a, b}
			res := s.Run()
			if (res.Err != nil) != (tc.failAt > 0) {
				t.Fatalf("run error = %v with failAt=%d", res.Err, tc.failAt)
			}
			if (res.Bug != nil) != tc.wantBug {
				t.Fatalf("bug = %v, want one: %v", res.Bug, tc.wantBug)
			}
			if a.retained() != 0 || b.retained() != 0 {
				t.Errorf("trackers retain checkpoints: A=%d B=%d, want 0/0", a.retained(), b.retained())
			}
			assertNoCheckpointState(t, s)
		})
	}
}

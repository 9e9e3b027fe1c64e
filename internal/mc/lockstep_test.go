// Lockstep guards for the state-capture reworks. The write-set
// checkpoints (undo frames on the media, adopt-on-restore in VeriFS) run
// beside the thing they replaced — a full copy of the state at every
// Checkpoint, compared after the matching Restore — over real
// explorations, crash probes included; and the crash oracle's recovery
// session (one execution, crash images as the probe frame plus a
// prefix of the write log) runs beside full images rebuilt at every power
// cut, and then beside its reference flow (one execution per point);
// and every kernel mount of a jffs2 target runs beside a first mount of a
// fresh flash holding a copy of the bytes.
// Test-only: production has no such mode.
package mc_test

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/fs/jffs2sim"
	"mcfs/internal/fuse"
	"mcfs/internal/obs/journal"
	"mcfs/internal/tracker"
	"mcfs/internal/vfs"
	"mcfs/internal/workload"
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

// mountGuard counts the kernel mounts of one jffs2 target that were held
// against a first mount of a copy.
type mountGuard struct {
	name    string
	checked int
}

// observeFS renders everything the vfs interface shows of a mounted file
// system that a mount rebuilds from the medium: every inode's attributes
// (atime aside — it is not logged), directory order, content, link
// targets, and the free-space report the write head's position decides.
func observeFS(f vfs.FS) (string, error) {
	var out strings.Builder
	var walk func(ino vfs.Ino, path string) error
	walk = func(ino vfs.Ino, path string) error {
		st, e := f.Getattr(ino)
		if e != errno.OK {
			return fmt.Errorf("getattr %s: %w", path, e)
		}
		fmt.Fprintf(&out, "%s ino=%d mode=%o nlink=%d uid=%d gid=%d size=%d mtime=%d ctime=%d",
			path, st.Ino, st.Mode, st.Nlink, st.UID, st.GID, st.Size, st.Mtime, st.Ctime)
		switch {
		case st.Mode.IsRegular():
			data, e := f.Read(ino, 0, int(st.Size))
			if e != errno.OK {
				return fmt.Errorf("read %s: %w", path, e)
			}
			fmt.Fprintf(&out, " data=%x", md5.Sum(data))
		case st.Mode.IsSymlink():
			target, e := f.(vfs.SymlinkFS).Readlink(ino)
			if e != errno.OK {
				return fmt.Errorf("readlink %s: %w", path, e)
			}
			fmt.Fprintf(&out, " target=%q", target)
		}
		out.WriteByte('\n')
		if !st.Mode.IsDir() {
			return nil
		}
		ents, e := f.ReadDir(ino)
		if e != errno.OK {
			return fmt.Errorf("readdir %s: %w", path, e)
		}
		for _, de := range ents {
			if de.Name == "." || de.Name == ".." {
				continue
			}
			if err := walk(de.Ino, path+"/"+de.Name); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(f.Root(), ""); err != nil {
		return "", err
	}
	sfs, e := f.StatFS()
	if e != errno.OK {
		return "", fmt.Errorf("statfs: %w", e)
	}
	fmt.Fprintf(&out, "statfs %+v\n", sfs)
	return out.String(), nil
}

// guardJFFS2Mounts puts a check behind the mount function of every jffs2
// target of s — the one the kernel calls for per-op remounts, restores
// and crash recoveries alike: what it mounts must look, through the vfs
// interface, like a first mount of a fresh flash loaded with a copy of
// the medium's bytes. Whatever the session's mount path carries from one
// mount to the next, a mount stays a function of the flash.
func guardJFFS2Mounts(t *testing.T, s *mcfs.Session) []*mountGuard {
	t.Helper()
	cfg := s.Config()
	var out []*mountGuard
	for _, tgt := range cfg.Checker.Targets() {
		m, _, e := cfg.Kernel.MountAt(tgt.MountPoint)
		if e != errno.OK {
			t.Fatalf("%s not mounted: %v", tgt.Name, e)
		}
		if m.Type() != "jffs2" {
			continue
		}
		g := &mountGuard{name: tgt.Name}
		spec, opts, dev := m.Spec(), m.Options(), m.Dev()
		mount := spec.Mounter
		spec.Mounter = func() (vfs.FS, error) {
			f, err := mount()
			if err != nil {
				return nil, err
			}
			raw, err := dev.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("mount guard: copying %s's flash: %w", g.name, err)
			}
			fresh := blockdev.NewMTD("ref", dev.Size(), dev.BlockSize(), nil)
			if err := fresh.LoadImage(raw); err != nil {
				return nil, err
			}
			ref, err := jffs2sim.Mount(fresh, nil)
			if err != nil {
				return nil, fmt.Errorf("mount guard: the session mounted %s, a copy of its flash does not mount: %w", g.name, err)
			}
			got, err := observeFS(f)
			if err != nil {
				return nil, fmt.Errorf("mount guard: observing %s: %w", g.name, err)
			}
			want, err := observeFS(ref)
			if err != nil {
				return nil, fmt.Errorf("mount guard: observing the copy of %s: %w", g.name, err)
			}
			if got != want {
				t.Errorf("%s: mount %d differs from a first mount of a copy of the flash:\n--- session\n%s--- copy\n%s", g.name, g.checked, got, want)
			}
			g.checked++
			return f, nil
		}
		if err := cfg.Kernel.Unmount(tgt.MountPoint); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Kernel.Mount(tgt.MountPoint, spec, opts); err != nil {
			t.Fatal(err)
		}
		if cfg.Crash != nil {
			for i := range cfg.Crash.Planes {
				if cfg.Crash.Planes[i].Mount == tgt.MountPoint {
					cfg.Crash.Planes[i].Spec = spec
				}
			}
		}
		out = append(out, g)
	}
	return out
}

// assertNoCheckpointState is the leak check on the far side of the
// Tracker interface: after a run, however it ended, no medium holds an
// open undo frame or a byte of pre-images, no VeriFS holds a snapshot,
// and no crash plane's fault plane holds a crash point or a write log.
func assertNoCheckpointState(t *testing.T, s *mcfs.Session) {
	t.Helper()
	cfg := s.Config()
	if cfg.Crash != nil {
		for _, p := range cfg.Crash.Planes {
			for k := 0; k < p.Injector.WindowWrites(); k++ {
				if _, fired, _ := p.Injector.CrashImage(k); fired {
					t.Errorf("%s: crash point %d outlived its probe", p.Name, k)
					break
				}
			}
			if _, on := p.Injector.Touched(); on {
				t.Errorf("%s: the touch log is still recording after the run", p.Name)
			}
		}
	}
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
		name   string
		opts   mcfs.Options
		mounts bool // a jffs2 target: its kernel mounts are guarded too
	}{
		// The golden d3 VeriFS exploration and the golden ext crash run.
		{name: "verifs-d3", opts: mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 3, MaxOps: 300}},
		{name: "ext-crash-d1", opts: mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
			MaxDepth: 1, CrashExploration: true}},
		// Nested frames on block devices, 256 KiB and 16 MiB.
		{name: "ext-d3", opts: mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
			MaxDepth: 3, MaxOps: 300}},
		{name: "ext4-xfs-d2", opts: mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "xfs"}},
			MaxDepth: 2, MaxOps: 60}},
		// The pinned block-device-plus-flash crash run: power cuts load
		// images through LoadImage/LoadImageDelta under open frames, on
		// Disk and MTD both.
		{name: "ext4-jffs2-crash-d2", mounts: true, opts: mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
			MaxDepth: 2, MaxOps: 1500, CrashExploration: true}},
		// The flash under nested frames and per-op remounts, three deep:
		// every restore and every remount is a jffs2 mount.
		{name: "ext4-jffs2-d3", mounts: true, opts: mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
			MaxDepth: 3, MaxOps: 400}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := mcfs.NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mounts := guardJFFS2Mounts(t, s)
			if tc.mounts != (len(mounts) > 0) {
				t.Fatalf("%d jffs2 mount guards installed, want some: %v", len(mounts), tc.mounts)
			}
			guards := lockstep(t, s)
			res := s.Run()
			if res.Err != nil || res.Bug != nil {
				t.Fatalf("run under lockstep: err=%v bug=%v", res.Err, res.Bug)
			}
			for _, g := range mounts {
				if int64(g.checked) < res.Ops {
					t.Errorf("%s: %d kernel mounts compared over %d ops, want at least one per op", g.name, g.checked, res.Ops)
				}
				t.Logf("%s: %d kernel mounts compared over %d ops", g.name, g.checked, res.Ops)
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
// exhausted (crash probes' own frames and write logs included), bug found
// (normally and by a crash probe, under nested frames), budget exhausted
// mid-depth and mid-probe, and a checkpoint error unwinding through
// Discard — and checks the file systems, media and fault planes
// themselves.
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
		{name: "clean/ext-crash", opts: mcfs.Options{Targets: ext(), MaxDepth: 1, CrashExploration: true}},
		{name: "clean/ext4-jffs2-crash", opts: mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}}, MaxDepth: 1, CrashExploration: true}},
		{name: "bug/ext-crash", opts: mcfs.Options{Targets: ext(mcfs.BugJournalCommitFirst), MaxDepth: 2, MaxOps: 8000, CrashExploration: true}, wantBug: true},
		{name: "budget/ext-crash", opts: mcfs.Options{Targets: ext(), MaxDepth: 2, MaxOps: 137, CrashExploration: true}},
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

// installCheck wraps a crash plane's media and, at every image either
// crash flow installs, rebuilds that image the expensive way — a full
// copy of the pre-op image with the write-log prefix applied — and reads
// the media back against it. Both flows finish an install with Patch: the
// session over its probe frame (a rollback patches nothing), the
// reference over a full LoadImage.
type installCheck struct {
	blockdev.Media
	t         *testing.T
	name      string
	pre       []byte // the media at the last OpenFrame or LoadImage
	want, got []byte
	cuts      int // installs that patched something: power cuts
}

func (c *installCheck) read(into []byte) {
	if err := c.Media.ReadAt(into, 0); err != nil {
		c.t.Fatalf("%s: reading the media back: %v", c.name, err)
	}
}

func (c *installCheck) OpenFrame(key uint64) error {
	err := c.Media.OpenFrame(key)
	c.read(c.pre)
	return err
}

func (c *installCheck) LoadImage(img []byte) error {
	copy(c.pre, img)
	return c.Media.LoadImage(img)
}

func (c *installCheck) Patch(writes []fault.Write) error {
	if err := c.Media.Patch(writes); err != nil {
		return err
	}
	copy(c.want, c.pre)
	for _, w := range writes {
		copy(c.want[w.Off:], w.Data)
	}
	if c.read(c.got); !bytes.Equal(c.got, c.want) {
		n := 0
		for i := range c.got {
			if c.got[i] != c.want[i] {
				n++
			}
		}
		c.t.Fatalf("%s: install %d (%d log writes) left %d bytes that are not the pre-op image plus the log prefix", c.name, c.cuts, len(writes), n)
	}
	if len(writes) > 0 {
		c.cuts++
	}
	return nil
}

// checkInstalls puts an installCheck on every crash plane of s.
func checkInstalls(t *testing.T, s *mcfs.Session) []*installCheck {
	t.Helper()
	var out []*installCheck
	planes := s.Config().Crash.Planes
	for i := range planes {
		img, err := planes[i].Media.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		c := &installCheck{Media: planes[i].Media, t: t, name: planes[i].Name,
			pre: img, want: make([]byte, len(img)), got: make([]byte, len(img))}
		planes[i].Media = c
		out = append(out, c)
	}
	return out
}

// TestLockstepCrashImagesAgainstFullImages runs the crash oracle beside
// the full-image form it replaced. For every probed window of a space,
// crash point by crash point, what the recovery session leaves on the
// media before the recovery mount — the probe frame inside the diverged
// regions plus the write log's prefix, out of ONE execution — is
// byte for byte a full copy of the pre-op image with that prefix applied,
// and every rollback leaves the pre-op image itself. The journal's replay
// then re-probes every recorded window through the reference flow (an
// execution per point, full images) under the same check: it reaches the
// same verdicts and cuts the power exactly as often. (The two flows'
// images cannot be compared byte for byte: each window execution stamps
// mount counts and virtual-clock times into what it writes, and the
// reference flow executes later and mounts more often.)
func TestLockstepCrashImagesAgainstFullImages(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts mcfs.Options
	}{
		{"ext2-ext4-d2", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
			MaxDepth: 2, CrashExploration: true}},
		{"ext4-jffs2-d1", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
			MaxDepth: 1, CrashExploration: true}},
		// Windows of about 200 writes: 64 sampled points, all judged out of
		// the probe's one execution.
		{"ext2-ext4-long-windows", mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
			MaxDepth: 2, CrashExploration: true,
			Pool: &mcfs.Pool{Files: []string{"/f0"}, WriteOffsets: []int64{0}, WriteSizes: []int64{96 << 10},
				Ops: []workload.OpKind{workload.OpCreateFile, workload.OpWriteFile}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			jw, err := journal.Create(path, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.Journal = jw
			s, err := mcfs.NewSession(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			session := checkInstalls(t, s)
			res := s.Run()
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			if res.Err != nil || res.Bug != nil {
				t.Fatalf("session run: err=%v bug=%v", res.Err, res.Bug)
			}
			var cuts int64
			for _, c := range session {
				cuts += int64(c.cuts)
			}
			if cuts == 0 || cuts != res.Crash.PointsExplored {
				t.Errorf("%d power cuts checked, the run explored %d crash points", cuts, res.Crash.PointsExplored)
			}
			// One execution per probe, however long its window: every
			// executed op is an explored step or a probe.
			var steps int64
			for _, n := range res.Coverage.ByOp {
				steps += n
			}
			if res.Ops != steps+res.Crash.Probes {
				t.Errorf("%d ops executed, %d steps + %d probes", res.Ops, steps, res.Crash.Probes)
			}

			recs, err := journal.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := mcfs.NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			reference := checkInstalls(t, s2)
			rep, err := s2.ReplayJournal(recs)
			if err != nil || rep.Diverged {
				t.Fatalf("reference replay: err=%v diverged=%v (%s)", err, rep.Diverged, rep.Reason)
			}
			for i, c := range session {
				if ref := reference[i]; ref.cuts != c.cuts {
					t.Errorf("%s: the session cut the power %d times, the reference flow %d times", c.name, c.cuts, ref.cuts)
				}
			}
		})
	}
}

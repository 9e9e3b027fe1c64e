package mc

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/jffs2sim"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
	"mcfs/internal/workload"
)

func TestCrashPointsTable(t *testing.T) {
	tests := []struct {
		w    int
		want []int
	}{
		{w: 0, want: []int{}},
		{w: 1, want: []int{0}},
		{w: 3, want: []int{0, 1, 2}},
		{w: 10, want: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}
	for _, tc := range tests {
		if got := crashPoints(nil, tc.w); !slices.Equal(got, tc.want) {
			t.Errorf("crashPoints(%d) = %v, want %v", tc.w, got, tc.want)
		}
	}
	// Every write of a window up to crashPointsPerOp writes; an even
	// spread of crashPointsPerOp that includes the first and last write
	// of a longer one.
	for _, w := range []int{crashPointsPerOp, crashPointsPerOp + 1, 100, 205} {
		got := crashPoints(nil, w)
		if len(got) != min(w, crashPointsPerOp) || got[0] != 0 || got[len(got)-1] != w-1 {
			t.Errorf("crashPoints(%d) = %v: want %d points from 0 to %d", w, got, min(w, crashPointsPerOp), w-1)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("crashPoints(%d) = %v: not strictly increasing", w, got)
				break
			}
		}
	}
	if got := crashPoints(nil, 100); got[1] != 1 || got[32] != 50 {
		t.Errorf("crashPoints(100) = %v, want the spread i*99/63", got)
	}
}

// windowFixture mounts a RAM file system for crashWindow. postErr, when
// set, fails the window's second (post-op) remount: the mount's
// Unmounter succeeds once, for the pre-op remount, and then returns it.
func windowFixture(t *testing.T, postErr error) (*engine, *CrashPlane) {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock)
	unmounts := 0
	spec := kernel.FilesystemSpec{
		Type:    "verifs1",
		Mounter: func() (vfs.FS, error) { return verifs1.New(clock), nil },
		Unmounter: func(vfs.FS) error {
			if unmounts++; unmounts > 1 {
				return postErr
			}
			return nil
		},
	}
	if err := k.Mount("/mnt0", spec, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	return &engine{cfg: Config{Kernel: k}}, &CrashPlane{Name: "test#0", Mount: "/mnt0", Injector: fault.New()}
}

func TestCrashWindowReportsPostOpError(t *testing.T) {
	e, p := windowFixture(t, errors.New("remount exploded"))
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	_, err := e.crashWindow(p, op)
	if err == nil || !strings.Contains(err.Error(), "post-op") {
		t.Fatalf("crashWindow error = %v, want post-op failure", err)
	}
}

// TestRollbackAfterFailedRecovery pins the rollback from the state a
// failed recovery leaves: a power cut that installs an unmountable
// superblock leaves the mount point empty, and the plane's rollback
// mounts it again on the pre-op bytes.
func TestRollbackAfterFailedRecovery(t *testing.T) {
	clock := simclock.New()
	k := kernel.New(clock)
	dev := blockdev.NewRAM("ram0", 256*1024, clock)
	if err := extfs.Mkfs(dev, extfs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	spec := kernel.FilesystemSpec{
		Type:      "ext2",
		Dev:       dev,
		Mounter:   func() (vfs.FS, error) { return extfs.Mount(dev, clock) },
		Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
	}
	if err := k.Mount("/mnt0", spec, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	if e := k.Mkdir("/mnt0/d", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.SyncFS("/mnt0"); e != errno.OK {
		t.Fatal(e)
	}
	pre, err := dev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	dev.SetInjector(inj)
	inj.StartTouchLog()
	defer inj.StopTouchLog()
	e := &engine{cfg: Config{Kernel: k}}
	p := &CrashPlane{Name: "ext2#0", Mount: "/mnt0", Injector: inj, Media: dev}

	noMagic := []fault.Write{{Off: 0, Data: make([]byte, 4)}}
	if err := e.powerCycle(p, func() error { return dev.Patch(noMagic) }); err == nil {
		t.Fatal("recovery mounted a volume whose superblock has no magic")
	}
	if _, _, er := k.MountAt("/mnt0/d"); er != errno.ENOENT || len(k.Mounts()) != 0 {
		t.Fatalf("after a failed recovery MountAt = %v and %d mounts, want ENOENT and none", er, len(k.Mounts()))
	}
	if _, er := k.Stat("/mnt0/d"); er != errno.ENOENT {
		t.Fatalf("Stat through the empty mount point = %v, want ENOENT", er)
	}

	if err := e.rollback(p, func() error { return dev.LoadImage(pre) }); err != nil {
		t.Fatalf("rollback from the empty mount point: %v", err)
	}
	m, rest, er := k.MountAt("/mnt0/d")
	if er != errno.OK || m.Point() != "/mnt0" || rest != "/d" {
		t.Fatalf("after the rollback MountAt = %v %q %v, want /mnt0 /d OK", m, rest, er)
	}
	if st, er := k.Stat("/mnt0/d"); er != errno.OK || !st.Mode.IsDir() {
		t.Fatalf("the pre-op directory after the rollback: %v %v", st.Mode, er)
	}
	if regions, ok := inj.Touched(); !ok || len(regions) != 0 {
		t.Errorf("the touch log after the rollback holds %v (ok %v), want the loaded image as its base", regions, ok)
	}
}

// touchedAtRevert is a crash plane's media that, at every RevertFrame,
// keeps the touch log's regions — every byte written since the log's
// last start or reset, which bound the pages the revert copies back —
// and every Patch's: together, everything the windows, the recoveries,
// the reverts and the installs may have changed.
type touchedAtRevert struct {
	blockdev.Media
	inj     *fault.Injector
	written []fault.Region
}

func (w *touchedAtRevert) RevertFrame(key uint64, regions []fault.Region) error {
	touched, _ := w.inj.Touched()
	w.written = append(w.written, touched...)
	return w.Media.RevertFrame(key, regions)
}

func (w *touchedAtRevert) Patch(writes []fault.Write) error {
	for _, wr := range writes {
		w.written = append(w.written, fault.Region{Off: wr.Off, Len: int64(len(wr.Data))})
	}
	return w.Media.Patch(writes)
}

// TestReprobeKeepsUnwrittenFlashBlocksStamped: the crash oracle's
// reference flow puts the pre-op image back by reverting its probe frame
// over the whole flash, which copies back only the pages written since,
// so every erase block that no window, recovery or revert wrote keeps
// its change stamp — and a jffs2 mount through the session's ScanCache,
// which parses a block again only when its stamp moves, re-parses just
// the blocks the probe wrote. A full image load would restamp them all.
func TestReprobeKeepsUnwrittenFlashBlocksStamped(t *testing.T) {
	const size, es = 256 << 10, 8 << 10
	clock := simclock.New()
	k := kernel.New(clock)
	mtd := blockdev.NewMTD("mtd0", size, es, clock)
	if err := jffs2sim.Mkfs(mtd); err != nil {
		t.Fatal(err)
	}
	scans := jffs2sim.NewScanCache()
	spec := kernel.FilesystemSpec{
		Type:      "jffs2",
		Dev:       mtd,
		Mounter:   func() (vfs.FS, error) { return jffs2sim.MountCached(mtd, clock, scans) },
		Unmounter: func(f vfs.FS) error { return f.(*jffs2sim.FS).Unmount() },
	}
	if err := k.Mount("/mnt0", spec, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []workload.Op{
		{Kind: workload.OpMkdir, Path: "/d", Mode: 0o755},
		{Kind: workload.OpCreateFile, Path: "/d/f", Mode: 0o644},
		{Kind: workload.OpWriteFile, Path: "/d/f", Size: 3 * es, Byte: 'a'},
	} {
		if res := workload.Execute(k, "/mnt0", op); res.Err != errno.OK {
			t.Fatalf("%s: %v", op, res.Err)
		}
	}
	inj := fault.New()
	mtd.SetInjector(inj)
	media := &touchedAtRevert{Media: mtd, inj: inj}
	p := &CrashPlane{Name: "jffs2#0", Mount: "/mnt0", Injector: inj, Media: media}
	e := &engine{cfg: Config{Kernel: k, Checker: checker.New(k, []checker.Target{{Name: "jffs2", MountPoint: "/mnt0"}})}}
	stamps := func() []uint64 {
		out := make([]uint64, size/es)
		for blk := range out {
			_, stamp, err := mtd.LendBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			out[blk] = stamp
		}
		return out
	}

	before := stamps()
	op := workload.Op{Kind: workload.OpWriteFile, Path: "/d/f", Off: es, Size: es, Byte: 'b'}
	d, _, err := e.reprobe(p, op, []int{0, 1, 2, 3})
	if err != nil || d != nil {
		t.Fatalf("reprobe: %v, %v", d, err)
	}
	if len(media.written) == 0 {
		t.Fatal("the probe wrote nothing: the test exercises nothing")
	}
	unwritten := 0
	for blk, stamp := range stamps() {
		lo := int64(blk * es)
		if slices.ContainsFunc(media.written, func(r fault.Region) bool { return r.Len > 0 && r.Off < lo+es && lo < r.Off+r.Len }) {
			continue
		}
		if unwritten++; stamp != before[blk] {
			t.Errorf("block %d: nothing wrote it, yet its stamp moved from %d to %d", blk, before[blk], stamp)
		}
	}
	if unwritten == 0 {
		t.Error("the probe wrote every block: the test exercises nothing")
	}
	if frames, arena := mtd.UndoStats(); frames != 0 || arena != 0 {
		t.Errorf("after the reprobe: %d frames, %d arena bytes; want 0, 0", frames, arena)
	}
}

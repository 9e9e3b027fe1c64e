package mc

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/fs/extfs"
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

package mc

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/fault"
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
		if got := crashPoints(tc.w); !slices.Equal(got, tc.want) {
			t.Errorf("crashPoints(%d) = %v, want %v", tc.w, got, tc.want)
		}
	}
	// Every write of a window up to crashPointsPerOp writes; an even
	// spread of crashPointsPerOp that includes the first and last write
	// of a longer one.
	for _, w := range []int{crashPointsPerOp, crashPointsPerOp + 1, 100, 205} {
		got := crashPoints(w)
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
	if got := crashPoints(100); got[1] != 1 || got[32] != 50 {
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
	return &engine{cfg: Config{Kernel: k}}, &CrashPlane{Name: "test#0", Mount: "/mnt0", Spec: spec, Injector: fault.New()}
}

func TestCrashWindowReportsPostOpError(t *testing.T) {
	e, p := windowFixture(t, errors.New("remount exploded"))
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	_, err := e.crashWindow(p, op)
	if err == nil || !strings.Contains(err.Error(), "post-op") {
		t.Fatalf("crashWindow error = %v, want post-op failure", err)
	}
}

package mc

import (
	"errors"
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
		w, m int
		want []int
	}{
		{w: 0, m: 1, want: []int{}},
		{w: 0, m: 4, want: []int{}},
		{w: 1, m: 1, want: []int{0}},
		{w: 1, m: 4, want: []int{0}},
		{w: 3, m: 4, want: []int{0, 1, 2}},
		// m == 1 samples the FIRST write; the old code returned w-1,
		// which for journaled targets lands after the commit record and
		// exercises no recovery at all.
		{w: 10, m: 1, want: []int{0}},
		{w: 10, m: 2, want: []int{0, 9}},
		{w: 10, m: 4, want: []int{0, 3, 6, 9}},
		{w: 10, m: 0, want: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}, // default: exhaustive up to maxArmedPoints
		{w: 100, m: 3, want: []int{0, 49, 99}},
	}
	for _, tc := range tests {
		got := crashPoints(tc.w, tc.m)
		if len(got) != len(tc.want) {
			t.Errorf("crashPoints(%d, %d) = %v, want %v", tc.w, tc.m, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("crashPoints(%d, %d) = %v, want %v", tc.w, tc.m, got, tc.want)
				break
			}
		}
	}
}

// crashWindow must leave zero armed crash points on EVERY exit path —
// a leftover arm silently captures in the next window. The target here
// is a RAM file system with no device under it, so the window sees zero
// writes and every armed point stays pending until the cleanup runs.
// postErr, when set, fails the window's second (post-op) remount: the
// mount's Unmounter succeeds once, for the pre-op remount, and then
// returns it.
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

func TestCrashWindowDisarmsOnSuccess(t *testing.T) {
	e, p := windowFixture(t, nil)
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	if _, err := e.crashWindow(p, op, []int{3, 7}); err != nil {
		t.Fatalf("crashWindow: %v", err)
	}
	if n := p.Injector.Armed(); n != 0 {
		t.Errorf("success path leaked %d armed crash point(s)", n)
	}
}

func TestCrashWindowDisarmsOnPostOpError(t *testing.T) {
	e, p := windowFixture(t, errors.New("remount exploded"))
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	_, err := e.crashWindow(p, op, []int{3, 7})
	if err == nil || !strings.Contains(err.Error(), "post-op") {
		t.Fatalf("crashWindow error = %v, want post-op failure", err)
	}
	if n := p.Injector.Armed(); n != 0 {
		t.Errorf("post-op error path leaked %d armed crash point(s)", n)
	}
	for _, k := range []int{3, 7} {
		if _, fired, _ := p.Injector.CrashImage(k); fired {
			t.Errorf("post-op error path kept crash point %d's mark", k)
		}
	}
}

func TestCrashWindowMeasurementArmsNothing(t *testing.T) {
	e, p := windowFixture(t, nil)
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	if _, err := e.crashWindow(p, op, nil); err != nil {
		t.Fatalf("crashWindow: %v", err)
	}
	if n := p.Injector.Armed(); n != 0 {
		t.Errorf("measurement run armed %d crash point(s)", n)
	}
}

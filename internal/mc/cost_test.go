package mc_test

import (
	"fmt"
	"runtime"
	"testing"

	"mcfs"
	"mcfs/internal/mc"
	"mcfs/internal/workload"
)

// TestCrashProbeCostTracksWriteSet is the regression guard on what a
// crash probe allocates: the checkpoint is an undo frame and every crash
// image a prefix of the write log, so probing a small operation's window
// costs about its write set — on a device four times the size it must
// not cost four times the bytes, as it did when each armed write and the
// probe itself copied the image.
func TestCrashProbeCostTracksWriteSet(t *testing.T) {
	pool := workload.Pool{Dirs: []string{"/d0"}, Ops: []workload.OpKind{workload.OpMkdir}}
	perProbe := func(size int64) uint64 {
		t.Helper()
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:          []mcfs.TargetSpec{{Kind: "ext2", DeviceSize: size}, {Kind: "ext4", DeviceSize: size}},
			MaxDepth:         1,
			CrashExploration: true,
			Pool:             &pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := s.Run()
		runtime.ReadMemStats(&after)
		if res.Err != nil || res.Bug != nil || res.Crash.Probes == 0 || res.Crash.PointsExplored == 0 {
			t.Fatalf("crash run on %d-byte devices: err=%v bug=%v crash=%+v", size, res.Err, res.Bug, res.Crash)
		}
		return (after.TotalAlloc - before.TotalAlloc) / uint64(res.Crash.Probes)
	}
	small, large := perProbe(256<<10), perProbe(1<<20)
	t.Logf("run bytes per probe: %d on 256 KiB devices, %d on 1 MiB devices", small, large)
	if large > small+small/2 {
		t.Errorf("a probe's run allocates %d bytes on 1 MiB devices against %d on 256 KiB: the cost follows the image, not the write set", large, small)
	}
}

// TestCrashProbeAllocationBudget: an exhaustive depth-1 ext2-vs-ext4
// crash run — BenchmarkCrashProbe's iteration, session included —
// allocates at most 1.9 MB, its measured 1.52 MB plus a quarter. A probe
// saves each page once across its power cuts, a power cut hands the
// mount's buffers back, coalescing the touched regions sorts them
// without a reflective swapper, and the touch log, the undo arena and
// fsck's blocks reuse the last probe's memory until a collection takes
// it; before those the run took 12.3 MB, and 5.42 MB before the last.
func TestCrashProbeAllocationBudget(t *testing.T) {
	const budget = 1_900_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:          []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		MaxDepth:         1,
		CrashExploration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	s.Close()
	runtime.ReadMemStats(&after)
	if res.Err != nil || res.Bug != nil || res.Crash.PointsExplored == 0 {
		t.Fatalf("crash run: err=%v bug=%v crash=%+v", res.Err, res.Bug, res.Crash)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > budget {
		t.Errorf("an exhaustive depth-1 ext2/ext4 crash run allocates %d bytes, budget %d", n, budget)
	}
}

// TestReadStepAllocatesNothing: once warm, a step of read_file allocates
// nothing on the VeriFS pair over FUSE and on the ext pair with its
// per-op remounts, at 3 files as at 24. Each target reads into a buffer
// of its own that the engine keeps; the checker compares the two.
func TestReadStepAllocatesNothing(t *testing.T) {
	read := workload.Op{Kind: workload.OpRead, Path: "/f0"}
	for _, pair := range [][2]string{{"verifs1", "verifs2"}, {"ext2", "ext4"}} {
		for _, files := range []int{3, 24} {
			s, err := mcfs.NewSession(mcfs.Options{
				Targets:  []mcfs.TargetSpec{{Kind: pair[0]}, {Kind: pair[1]}},
				MaxDepth: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var setup []workload.Op
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("/f%d", i)
				setup = append(setup,
					workload.Op{Kind: workload.OpCreateFile, Path: path, Mode: 0o644},
					workload.Op{Kind: workload.OpWriteFile, Path: path, Off: int64(i), Size: 4096, Byte: byte(i + 1)})
			}
			if n := mc.StepMallocs(t, *s.Config(), setup, read, 1000); n != 0 {
				t.Errorf("%s/%s with %d files: 1000 warm read_file steps allocate %d times, want 0", pair[0], pair[1], files, n)
			}
			s.Close()
		}
	}
}

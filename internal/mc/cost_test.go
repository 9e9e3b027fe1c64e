package mc_test

import (
	"runtime"
	"testing"

	"mcfs"
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

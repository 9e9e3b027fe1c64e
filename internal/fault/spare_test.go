package fault

import (
	"runtime"
	"testing"
)

// touchCycle is one probe's use of the touch log: it logs a window of n
// writes of size bytes each, then drops the log.
func touchCycle(in *Injector, n, size int) {
	in.StartTouchLog()
	in.StartWindow()
	for i := 0; i < n; i++ {
		land(in.OnWrite(int64(i*size), size), byte(i))
	}
	in.EndWindow()
	in.StopTouchLog()
}

// TestTouchLogSpareLaws: a dropped log leaves its bytes to the next, so a
// warm log cycle allocates nothing at 8 writes and at 64; and they are a
// spare a collection takes back, so after one the heap is its size
// before the cycle, with a 128 KiB log and a 1 MiB one.
func TestTouchLogSpareLaws(t *testing.T) {
	for _, n := range []int{8, 64} {
		in := New()
		touchCycle(in, n, 512)
		if a := testing.AllocsPerRun(20, func() { touchCycle(in, n, 512) }); a != 0 {
			t.Errorf("a warm touch-log cycle of %d writes allocates %.0f times, want 0", n, a)
		}
	}
	for _, n := range []int{128, 1024} {
		in := New()
		in.StartTouchLog()
		in.StopTouchLog() // the touched set and marks' first, empty, arrays
		before := liveHeap()
		touchCycle(in, n, 1024)
		// What stays is the marks and touched set a probe reuses: 8 bytes
		// and one region per write at most.
		if after, kept := liveHeap(), n*8+n*16+4<<10; after > before+kept {
			t.Errorf("%d KiB log: the heap grew from %d to %d bytes across a collection, more than the %d the marks may keep", n, before, after, kept)
		}
		if _, ok := in.spareLog.Take(); ok {
			t.Errorf("%d KiB log: the spare outlived a collection", n)
		}
		runtime.KeepAlive(in)
	}
}

// liveHeap is the heap's size right after a full collection.
func liveHeap() int {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

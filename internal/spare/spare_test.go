package spare

import (
	"runtime"
	"testing"
)

func TestTakeReturnsWhatPutLeft(t *testing.T) {
	var s Slot[[]byte]
	if _, ok := s.Take(); ok {
		t.Fatal("the zero slot gave something back")
	}
	buf := make([]byte, 0, 4096)
	s.Put(buf)
	got, ok := s.Take()
	if !ok || cap(got) != cap(buf) || &got[:1][0] != &buf[:1][0] {
		t.Fatalf("Take after Put = %d bytes, %v; want the buffer put", cap(got), ok)
	}
	if _, ok := s.Take(); ok {
		t.Error("a second Take gave the buffer out twice")
	}
	s.Put(buf)
	s.Put(make([]byte, 0, 8))
	if got, _ := s.Take(); cap(got) != 8 {
		t.Errorf("Take after two Puts = %d bytes, want the last one's 8", cap(got))
	}
}

// TestPutAfterTakeAllocatesNothing: an owner that takes its buffer back
// and lets it go again makes no box and no weak handle.
func TestPutAfterTakeAllocatesNothing(t *testing.T) {
	var s Slot[[]byte]
	buf := make([]byte, 0, 4096)
	s.Put(buf)
	cycle := func() {
		b, ok := s.Take()
		if !ok {
			b = buf
		}
		s.Put(b)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a Take and Put allocate %.0f times, want 0", n)
	}
}

// TestACollectionReclaimsTheSpare: nothing but the slot holds what it
// was given, so one collection takes it back — the heap after it is the
// heap before the Put — and the slot then reads empty.
func TestACollectionReclaimsTheSpare(t *testing.T) {
	for _, size := range []int{64 << 10, 1 << 20} {
		var s Slot[[]byte]
		before := liveHeap()
		s.Put(make([]byte, size))
		if after := liveHeap(); after > before+size/8 {
			t.Errorf("%d-byte spare: the heap grew from %d to %d bytes across a collection", size, before, after)
		}
		if _, ok := s.Take(); ok {
			t.Errorf("%d-byte spare: the slot kept its buffer across a collection", size)
		}
		runtime.KeepAlive(&s)
	}
}

// liveHeap is the heap's size right after a full collection.
func liveHeap() int {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

package blockdev

import (
	"bytes"
	"runtime"
	"testing"

	"mcfs/internal/simclock"
)

// frameCycle is one root checkpoint's life on d: a frame opens, page is
// written over each of the first pages pages, and a rewind closes it.
func frameCycle(t testing.TB, d *Disk, pages int, page []byte) {
	t.Helper()
	if err := d.OpenFrame(1); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if err := d.WriteAt(page, int64(p)*cachePage); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.RewindFrame(1); err != nil {
		t.Fatal(err)
	}
}

// TestUndoSpareLaws: the last frame to close leaves its log, its stamp
// index and the free pages to the next, so a warm root-frame cycle
// allocates nothing at 4 written pages and at 32; and they are a spare a
// collection takes back: after one, the heap is its size before a cycle
// that wrote all of a 1 MiB disk, and the medium reports no pre-images.
func TestUndoSpareLaws(t *testing.T) {
	clk := simclock.New()
	page := bytes.Repeat([]byte{1}, cachePage)
	for _, pages := range []int{4, 32} {
		d := NewRAM("ram0", 1<<20, clk)
		frameCycle(t, d, pages, page)
		if n := testing.AllocsPerRun(20, func() { frameCycle(t, d, pages, page) }); n != 0 {
			t.Errorf("a warm root-frame cycle over %d pages allocates %.0f times, want 0", pages, n)
		}
	}

	d := NewRAM("ram0", 1<<20, clk)
	before := liveHeap()
	frameCycle(t, d, (1<<20)/cachePage, page)
	if after := liveHeap(); after > before+64<<10 {
		t.Errorf("the heap grew from %d to %d bytes across a collection after a 1 MiB frame", before, after)
	}
	if _, ok := d.s.undo.spare.Take(); ok {
		t.Error("the undo spare outlived a collection")
	}
	if frames, arena := d.UndoStats(); frames != 0 || arena != 0 {
		t.Errorf("the disk holds %d frames and a %d-byte arena after the cycle, want 0/0", frames, arena)
	}
}

// TestReusedStampIndexSavesEveryNewFrame: a root frame that takes the
// last one's stamp index back saves the pages it writes, though the last
// frame stamped them: a stamp carried over never passes for the new
// frame's, or the save would be skipped and the rewind leave the write.
func TestReusedStampIndexSavesEveryNewFrame(t *testing.T) {
	d := NewRAM("ram0", 4*cachePage, simclock.New())
	for round := byte(1); round <= 3; round++ {
		if err := d.OpenFrame(uint64(round)); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteAt([]byte{round}, 0); err != nil {
			t.Fatal(err)
		}
		d.CloseFrame(uint64(round)) // the write stays, stamped by a closed frame
		want := d.s.image()
		frameCycle(t, d, 1, bytes.Repeat([]byte{0xEE}, cachePage))
		if !bytes.Equal(d.s.image(), want) {
			t.Fatalf("round %d: the rewind left the frame's write on the medium: a stale stamp skipped its save", round)
		}
	}
}

// liveHeap is the heap's size right after a full collection.
func liveHeap() int {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

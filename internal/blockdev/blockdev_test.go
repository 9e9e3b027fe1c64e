package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

func TestDiskReadWrite(t *testing.T) {
	d := NewRAM("ram0", 64*1024, simclock.New())
	data := []byte("hello, block device")
	if err := d.WriteAt(data, 4096); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 4096); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
}

func TestDiskBounds(t *testing.T) {
	d := NewRAM("ram0", 4096, simclock.New())
	buf := make([]byte, 10)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"read past end", func() error { return d.ReadAt(buf, 4090) }},
		{"write past end", func() error { return d.WriteAt(buf, 4090) }},
		{"negative offset read", func() error { return d.ReadAt(buf, -1) }},
		{"negative offset write", func() error { return d.WriteAt(buf, -1) }},
	}
	for _, c := range cases {
		if err := c.fn(); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%s: err = %v, want ErrOutOfRange", c.name, err)
		}
	}
}

func TestDiskSnapshotRestore(t *testing.T) {
	d := NewRAM("ram0", 8192, simclock.New())
	if err := d.WriteAt([]byte("state A"), 0); err != nil {
		t.Fatal(err)
	}
	img, err := d.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := d.WriteAt([]byte("state B"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(img); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got := make([]byte, 7)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "state A" {
		t.Errorf("after restore, read %q, want %q", got, "state A")
	}
}

func TestDiskRestoreSizeMismatch(t *testing.T) {
	d := NewRAM("ram0", 8192, simclock.New())
	if err := d.Restore(make([]byte, 4096)); err == nil {
		t.Error("Restore with wrong-size image succeeded")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	d := NewRAM("ram0", 4096, simclock.New())
	img, _ := d.Snapshot()
	img[0] = 0xAB
	got := make([]byte, 1)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] == 0xAB {
		t.Error("mutating a snapshot changed the device")
	}
}

func TestWriteFaultInjection(t *testing.T) {
	boom := errors.New("write fault")
	d := NewRAM("ram0", 4096, simclock.New())
	inj := fault.New()
	d.SetInjector(inj)
	id := inj.AddRule(fault.Rule{Kind: fault.KindError, AtWrite: -1, Err: boom, AlwaysOn: true})
	if err := d.WriteAt([]byte{1}, 0); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the injected fault", err)
	}
	inj.RemoveRule(id)
	if err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Errorf("write after clearing fault: %v", err)
	}
}

func TestReadFaultInjection(t *testing.T) {
	boom := errors.New("read fault")
	d := NewRAM("ram0", 64*1024, simclock.New())
	if err := d.WriteAt([]byte("payload"), 8192); err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	d.SetInjector(inj)
	id := inj.AddRule(fault.Rule{Kind: fault.KindReadError, Off: 8192, Len: 4096, Err: boom})

	buf := make([]byte, 7)
	if err := d.ReadAt(buf, 8192); err != boom {
		t.Errorf("read in faulted range = %v, want boom", err)
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Errorf("read outside faulted range: %v", err)
	}
	inj.RemoveRule(id)
	if err := d.ReadAt(buf, 8192); err != nil {
		t.Errorf("read after rule removed: %v", err)
	}
	if string(buf) != "payload" {
		t.Errorf("read back %q, want %q", buf, "payload")
	}
	if got := inj.Stats().ReadErrorsInjected; got != 1 {
		t.Errorf("ReadErrorsInjected = %d, want 1", got)
	}
}

func TestMTDReadFaultInjection(t *testing.T) {
	boom := errors.New("flash read fault")
	m := NewMTD("mtd0", 8192, 4096, simclock.New())
	inj := fault.New()
	m.SetInjector(inj)
	inj.AddRule(fault.Rule{Kind: fault.KindReadError, Off: 0, Len: 4096, Err: boom, Once: true})
	buf := make([]byte, 16)
	if err := m.ReadAt(buf, 0); err != boom {
		t.Errorf("MTD read = %v, want boom", err)
	}
	if err := m.ReadAt(buf, 0); err != nil {
		t.Errorf("MTD read after once-rule: %v", err)
	}
}

func TestLoadImageDelta(t *testing.T) {
	d := NewRAM("ram0", 64*1024, simclock.New())
	if err := d.WriteAt([]byte("AAAA"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt([]byte("BBBB"), 8192); err != nil {
		t.Fatal(err)
	}
	img, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Diverge the device from img at both sites, then delta-load only
	// the second: the first keeps its divergence.
	if err := d.WriteAt([]byte("XXXX"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt([]byte("YYYY"), 8192); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadImageDelta(img, []fault.Region{{Off: 8192, Len: 4}}); err != nil {
		t.Fatalf("LoadImageDelta: %v", err)
	}
	buf := make([]byte, 4)
	if err := d.ReadAt(buf, 8192); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "BBBB" {
		t.Errorf("delta region reads %q, want %q", buf, "BBBB")
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "XXXX" {
		t.Errorf("untouched region reads %q, want %q (delta must not touch it)", buf, "XXXX")
	}

	if err := d.LoadImageDelta(make([]byte, 1), nil); err == nil {
		t.Error("LoadImageDelta with wrong-size image succeeded")
	}
	if err := d.LoadImageDelta(img, []fault.Region{{Off: 60 * 1024, Len: 8192}}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range delta region: err = %v, want ErrOutOfRange", err)
	}
}

func TestLoadImageDeltaMatchesFullLoad(t *testing.T) {
	// With the touch log supplying the regions, a delta load must leave
	// the media byte-identical to a full LoadImage.
	clock := simclock.New()
	full := NewRAM("full", 32*1024, clock)
	delta := NewRAM("delta", 32*1024, clock)
	inj := fault.New()
	delta.SetInjector(inj)

	seed := bytes.Repeat([]byte{0x5A}, 32*1024)
	if err := full.LoadImage(seed); err != nil {
		t.Fatal(err)
	}
	if err := delta.LoadImage(seed); err != nil {
		t.Fatal(err)
	}
	img, err := delta.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	inj.StartTouchLog()
	for _, w := range []struct {
		off int64
		p   []byte
	}{{100, []byte("one")}, {5000, bytes.Repeat([]byte{7}, 2000)}, {31 * 1024, []byte("tail")}} {
		if err := delta.WriteAt(w.p, w.off); err != nil {
			t.Fatal(err)
		}
	}
	regions, ok := inj.Touched()
	if !ok {
		t.Fatal("touch log lost")
	}
	if err := delta.LoadImageDelta(img, regions); err != nil {
		t.Fatal(err)
	}
	got, err := delta.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("delta load diverged from full image load")
	}
}

func TestMTDRevertFrameMatchesFullLoad(t *testing.T) {
	// The flash sibling of the law above: programs and erases both reach
	// the touch log, so after any mix of them RevertFrame over Touched()
	// leaves the flash byte-identical to a full LoadImage of the image the
	// frame opened on.
	const size, erase = 64 * 1024, 8 * 1024
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		m := NewMTD("mtd0", size, erase, simclock.New())
		seed := make([]byte, size)
		rng.Read(seed)
		if err := m.LoadImage(seed); err != nil {
			t.Fatal(err)
		}
		inj := fault.New()
		m.SetInjector(inj)
		if err := m.OpenFrame(1); err != nil {
			t.Fatal(err)
		}
		inj.StartTouchLog()
		for i := 0; i < 30; i++ {
			if rng.Intn(3) == 0 {
				if err := m.Erase(rng.Intn(size / erase)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Programming can only clear bits: AND random bytes into
			// what the flash holds.
			off, n := rng.Int63n(size-256), 1+rng.Intn(256)
			p := make([]byte, n)
			if err := m.ReadAt(p, off); err != nil {
				t.Fatal(err)
			}
			for j := range p {
				p[j] &= byte(rng.Intn(256))
			}
			if err := m.Program(p, off); err != nil {
				t.Fatal(err)
			}
		}
		regions, ok := inj.Touched()
		if !ok {
			t.Fatal("touch log lost")
		}
		if err := m.RevertFrame(1, regions); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		if err := m.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, seed) {
			t.Fatalf("round %d: reverting the touched regions diverged from the full image", round)
		}
		m.CloseFrame(1)
		if frames, arena := m.UndoStats(); frames != 0 || arena != 0 {
			t.Fatalf("round %d: %d frames, %d arena bytes after the revert and close; want 0, 0", round, frames, arena)
		}
	}
}

func TestProfileCost(t *testing.T) {
	p := Profile{Seek: time.Millisecond, PerKiB: time.Microsecond}
	if got := p.Cost(0); got != time.Millisecond {
		t.Errorf("Cost(0) = %v", got)
	}
	if got := p.Cost(1); got != time.Millisecond+time.Microsecond {
		t.Errorf("Cost(1) = %v", got)
	}
	if got := p.Cost(4096); got != time.Millisecond+4*time.Microsecond {
		t.Errorf("Cost(4096) = %v", got)
	}
	if got := p.Cost(-5); got != time.Millisecond {
		t.Errorf("Cost(-5) = %v", got)
	}
}

func TestDiskChargesClock(t *testing.T) {
	clk := simclock.New()
	d := NewDisk("hdd0", 8<<20, HDDProfile, clk)
	buf := make([]byte, 4096)
	// A far-away cold read pays the full positioning cost.
	if err := d.ReadAt(buf, 4<<20); err != nil {
		t.Fatal(err)
	}
	if clk.Now() < HDDProfile.Seek {
		t.Errorf("HDD cold read charged %v, want at least seek %v", clk.Now(), HDDProfile.Seek)
	}
	before := clk.Now()
	ram := NewRAM("ram0", 1<<20, clk)
	if err := ram.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	ramCost := clk.Now() - before
	if ramCost >= HDDProfile.Seek {
		t.Errorf("RAM read cost %v not far below HDD seek %v", ramCost, HDDProfile.Seek)
	}
}

func TestPageCacheMakesRereadsCheap(t *testing.T) {
	clk := simclock.New()
	d := NewDisk("hdd0", 8<<20, HDDProfile, clk)
	buf := make([]byte, 4096)
	if err := d.ReadAt(buf, 4<<20); err != nil { // cold
		t.Fatal(err)
	}
	coldCost := clk.Now()
	before := clk.Now()
	if err := d.ReadAt(buf, 4<<20); err != nil { // cached
		t.Fatal(err)
	}
	warmCost := clk.Now() - before
	if warmCost*100 > coldCost {
		t.Errorf("cached reread cost %v vs cold %v; cache ineffective", warmCost, coldCost)
	}
	d.DropCaches()
	before = clk.Now()
	if err := d.ReadAt(buf, 4<<20); err != nil {
		t.Fatal(err)
	}
	if clk.Now()-before < HDDProfile.Seek/nearSeekDiv {
		t.Error("read after DropCaches did not touch the medium")
	}
}

func TestSequentialWritesGetSeekDiscount(t *testing.T) {
	clk := simclock.New()
	d := NewDisk("hdd0", 8<<20, HDDProfile, clk)
	buf := make([]byte, 4096)
	if err := d.WriteAt(buf, 4<<20); err != nil { // random
		t.Fatal(err)
	}
	first := clk.Now()
	before := clk.Now()
	if err := d.WriteAt(buf, 4<<20+4096); err != nil { // sequential
		t.Fatal(err)
	}
	second := clk.Now() - before
	if second*2 > first {
		t.Errorf("sequential write %v not much cheaper than random %v", second, first)
	}
}

func TestSyncChargesFlush(t *testing.T) {
	clk := simclock.New()
	d := NewDisk("ssd0", 1<<20, SSDProfile, clk)
	before := clk.Now()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if clk.Now()-before != SSDProfile.Flush {
		t.Errorf("Sync charged %v, want %v", clk.Now()-before, SSDProfile.Flush)
	}
}

func TestDiskCounters(t *testing.T) {
	d := NewRAM("ram0", 4096, simclock.New())
	buf := make([]byte, 16)
	_ = d.ReadAt(buf, 0)
	_ = d.WriteAt(buf, 0)
	_ = d.WriteAt(buf, 16)
	r, w := d.Counters()
	if r != 1 || w != 2 {
		t.Errorf("counters = (%d, %d), want (1, 2)", r, w)
	}
}

func TestMTDEraseProgram(t *testing.T) {
	m := NewMTD("mtd0", 64*1024, 4096, simclock.New())
	// Fresh flash is erased: programming works.
	if err := m.Program([]byte{0x12, 0x34}, 0); err != nil {
		t.Fatalf("Program on erased flash: %v", err)
	}
	// Reprogramming bits from 0 to 1 must fail.
	if err := m.Program([]byte{0xFF}, 0); !errors.Is(err, ErrNotErased) {
		t.Errorf("Program over data: err = %v, want ErrNotErased", err)
	}
	// Clearing more bits is allowed (0x12 -> 0x02).
	if err := m.Program([]byte{0x02}, 0); err != nil {
		t.Errorf("Program clearing bits: %v", err)
	}
	// After erase the block reads 0xFF and can be programmed again.
	if err := m.Erase(0); err != nil {
		t.Fatalf("Erase: %v", err)
	}
	got := make([]byte, 2)
	if err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFF || got[1] != 0xFF {
		t.Errorf("after erase, read %x, want FFFF", got)
	}
	if err := m.Program([]byte{0xAB}, 0); err != nil {
		t.Errorf("Program after erase: %v", err)
	}
}

func TestMTDEraseCounts(t *testing.T) {
	m := NewMTD("mtd0", 16*1024, 4096, simclock.New())
	_ = m.Erase(1)
	_ = m.Erase(1)
	_ = m.Erase(3)
	counts := m.EraseCounts()
	want := []int64{0, 2, 0, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("eraseCount[%d] = %d, want %d", i, counts[i], w)
		}
	}
}

func TestMTDBounds(t *testing.T) {
	m := NewMTD("mtd0", 16*1024, 4096, simclock.New())
	if err := m.Erase(4); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Erase(4) = %v, want ErrOutOfRange", err)
	}
	if err := m.Program([]byte{0}, 16*1024); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Program past end = %v, want ErrOutOfRange", err)
	}
	if err := m.ReadAt(make([]byte, 1), -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadAt(-1) = %v, want ErrOutOfRange", err)
	}
}

// Property: a disk behaves like a flat byte array — any sequence of
// in-range writes followed by a read returns exactly what a shadow buffer
// holds.
func TestQuickDiskMatchesShadow(t *testing.T) {
	const size = 32 * 1024
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		d := NewRAM("ram0", size, simclock.New())
		shadow := make([]byte, size)
		for _, op := range ops {
			off := int64(op.Off)
			data := op.Data
			if off+int64(len(data)) > size {
				continue
			}
			if err := d.WriteAt(data, off); err != nil {
				return false
			}
			copy(shadow[off:], data)
		}
		got := make([]byte, size)
		if err := d.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

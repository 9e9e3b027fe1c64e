package mc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/checker"
	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

// TestCrashStreamIsTheMaskedImage: the crash memo's key is the media
// under the regions with the masked bytes taken out, and equal streams
// mean equal media outside the mask. Two media that differ only under
// Mask stream equal; one changed unmasked byte, or the same bytes under
// another region list, streams differently. The stream is each region's
// offset and length, then its unmasked bytes. And it reads what a plain
// read of every region reads: the same requests on the same clock.
func TestCrashStreamIsTheMaskedImage(t *testing.T) {
	const size = 64 << 10
	// The mask is deliberately out of order and overlapping, and the
	// regions start, end and lie inside masked bytes.
	mask := []fault.Region{{Off: 20000, Len: 8000}, {Off: 100, Len: 4}, {Off: 96, Len: 6}, {Off: 4096, Len: 4096}, {Off: 24000, Len: 10}}
	regions := []fault.Region{{Off: 0, Len: 4096}, {Off: 6000, Len: 5000}, {Off: 21000, Len: 500}, {Off: 27000, Len: 3000}}
	img := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(img)
	plane := func(img []byte) (*CrashPlane, *blockdev.Disk, *simclock.Clock) {
		clk := simclock.New()
		d := blockdev.NewRAM("ram0", size, clk)
		if err := d.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}
		d.DropCaches()
		return &CrashPlane{Media: d, Mask: mask}, d, clk
	}
	var m crashMemo
	stream := func(img []byte, regions []fault.Region) []byte {
		t.Helper()
		p, _, _ := plane(img)
		m.reset()
		if !m.stream(p, regions) {
			t.Fatal("a stream of in-range regions failed")
		}
		return slices.Clone(m.arena)
	}
	base := stream(img, regions)
	var want []byte
	for _, r := range regions {
		want = binary.LittleEndian.AppendUint64(want, uint64(r.Off))
		want = binary.LittleEndian.AppendUint64(want, uint64(r.Len))
		for at := r.Off; at < r.Off+r.Len; at++ {
			if !under(mask, at) {
				want = append(want, img[at])
			}
		}
	}
	if !bytes.Equal(base, want) {
		t.Errorf("the stream is %d bytes, not the %d of the regions' headers and unmasked bytes", len(base), len(want))
	}

	masked := append([]byte(nil), img...)
	for _, r := range mask {
		for i := r.Off; i < r.Off+r.Len; i++ {
			masked[i] ^= 0xFF
		}
	}
	if !bytes.Equal(stream(masked, regions), base) {
		t.Error("media that differ only under the mask stream differently")
	}
	for _, r := range regions {
		for _, at := range []int64{r.Off, r.Off + r.Len/2, r.Off + r.Len - 1} {
			if under(mask, at) {
				continue
			}
			changed := append([]byte(nil), masked...)
			changed[at] ^= 1
			if bytes.Equal(stream(changed, regions), base) {
				t.Errorf("changing unmasked byte %d leaves the stream as it was", at)
			}
		}
	}
	moved := append([]fault.Region(nil), regions...)
	moved[1].Off++
	moved[1].Len--
	if bytes.Equal(stream(img, moved), base) {
		t.Error("the same media under another region list stream equal")
	}

	p, d, clk := plane(img)
	_, rd, rclk := plane(img)
	m.reset()
	if !m.stream(p, regions) {
		t.Fatal("a stream of in-range regions failed")
	}
	for _, r := range regions {
		if err := rd.ReadAt(make([]byte, r.Len), r.Off); err != nil {
			t.Fatal(err)
		}
	}
	reads, writes := d.Counters()
	wantReads, wantWrites := rd.Counters()
	if reads != wantReads || writes != wantWrites || clk.Now() != rclk.Now() {
		t.Errorf("a stream costs %d reads, %d writes, %v; plain reads of its regions %d, %d, %v",
			reads, writes, clk.Now(), wantReads, wantWrites, rclk.Now())
	}
	if m.stream(p, []fault.Region{{Off: size - 10, Len: 20}}) || !bytes.Equal(m.arena, base) {
		t.Error("a stream whose read fails does not leave the arena as it was")
	}
}

// TestCrashMemoHitsExactlyEqualStreams: a lookup hits only an entry whose
// stream equals the new one byte for byte, even when every crc collides,
// and a stream that hits is not kept.
func TestCrashMemoHitsExactlyEqualStreams(t *testing.T) {
	for _, collide := range []bool{false, true} {
		if collide {
			CollideCrashKeys(t)
		}
		var m crashMemo
		judge := func(stream string, v crashVerdict) (crashVerdict, bool) {
			m.arena = append(m.arena, stream...)
			got, hit := m.lookup()
			if !hit {
				m.keep(v)
			}
			return got, hit
		}
		a := crashVerdict{fsckProbs: []string{"a"}}
		b := crashVerdict{fsckProbs: []string{"b"}}
		if _, hit := judge("stream a", a); hit {
			t.Errorf("collide=%v: the first stream hits", collide)
		}
		if _, hit := judge("stream b", b); hit {
			t.Errorf("collide=%v: a different stream of the same length hits", collide)
		}
		if _, hit := judge("stream", b); hit {
			t.Errorf("collide=%v: a prefix of a kept stream hits", collide)
		}
		for _, tc := range []struct {
			stream string
			want   string
		}{{"stream a", "a"}, {"stream b", "b"}} {
			n := len(m.arena)
			got, hit := judge(tc.stream, crashVerdict{})
			if !hit || got.fsckProbs[0] != tc.want {
				t.Errorf("collide=%v: %q = %v, %v; want the kept verdict %q", collide, tc.stream, got.fsckProbs, hit, tc.want)
			}
			if len(m.arena) != n {
				t.Errorf("collide=%v: a hit keeps its stream", collide)
			}
		}
	}
}

// under reports whether a region of mask covers byte at.
func under(mask []fault.Region, at int64) bool {
	for _, m := range mask {
		if m.Off <= at && at < m.Off+m.Len {
			return true
		}
	}
	return false
}

// allocPlane is a crash plane on a 64 KiB RAM disk, its probe frame open
// and its touch log on, after a window of three writes and a recovery
// write past it: what a crash point works on.
func allocPlane(t *testing.T) (p *CrashPlane, capRegions []fault.Region, img []fault.Write) {
	t.Helper()
	d := blockdev.NewRAM("ram0", 64<<10, simclock.New())
	inj := fault.New()
	d.SetInjector(inj)
	if err := d.OpenFrame(probeFrame); err != nil {
		t.Fatal(err)
	}
	inj.StartTouchLog()
	inj.StartWindow()
	for _, off := range []int64{4096, 0, 9000} {
		if err := d.WriteAt(make([]byte, 1500), off); err != nil {
			t.Fatal(err)
		}
	}
	inj.EndWindow()
	capRegions, _ = inj.Touched()
	img, _, err := inj.CrashImage(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(make([]byte, 100), 30000); err != nil {
		t.Fatal(err)
	}
	p = &CrashPlane{Injector: inj, Media: d, Mask: []fault.Region{{Off: 9500, Len: 8}, {Off: 100, Len: 4}}}
	return p, capRegions, img
}

// TestCrashPointScratchAllocatesNothing: once the engine's scratch is
// warm, installing a crash image (the touched set merged with the
// window's into the region scratch) and judging a crash point through the
// verdict memo — the recovered media's divergence read into the arena,
// then a lookup that misses and keeps, or hits — allocate nothing.
func TestCrashPointScratchAllocatesNothing(t *testing.T) {
	p, capRegions, img := allocPlane(t)
	e := &engine{}
	install := func() {
		if err := e.install(p, capRegions, img); err != nil {
			t.Fatal(err)
		}
	}
	point := func(wantHit bool) {
		if !e.divergenceStream(p, capRegions) {
			t.Fatal("the stream of a logged plane failed")
		}
		v, hit := e.crashMemo.lookup()
		if hit != wantHit {
			t.Fatalf("lookup hit = %v, want %v", hit, wantHit)
		}
		if !hit {
			e.crashMemo.keep(v)
		}
	}
	probe := func() {
		e.crashMemo.reset()
		point(false)
		point(true)
	}
	install()
	probe()
	if n := testing.AllocsPerRun(100, install); n != 0 {
		t.Errorf("install allocates %.0f times per crash point, want 0", n)
	}
	if n := testing.AllocsPerRun(100, probe); n != 0 {
		t.Errorf("a missed and a memoized crash point allocate %.0f times, want 0", n)
	}
	want := fault.CoalesceRegions(append(slices.Clone(capRegions), fault.Region{Off: 30000, Len: 100}))
	if !slices.Equal(e.crashRegions.union, want) {
		t.Errorf("the memo key's regions = %v, want %v", e.crashRegions.union, want)
	}
}

// TestCrashVerdictAllocatesNothingWhenConsistent: judging a consistent
// recovery allocates nothing; the failure branch still prints each state
// as its first eight bytes in hex.
func TestCrashVerdictAllocatesNothingWhenConsistent(t *testing.T) {
	var b0, b1, other abstraction.State
	for i := range b0 {
		b0[i], b1[i], other[i] = byte(i), byte(i+1), byte(0xA0+i)
	}
	at := crashSite{p: &CrashPlane{Name: "ext4#1"}, k: 2, w: 5}
	var d *checker.Discrepancy
	for _, v := range []crashVerdict{{}, {state: b0, hasState: true}, {state: b1, hasState: true}} {
		if n := testing.AllocsPerRun(100, func() { d = v.discrepancy(at, b0, b1) }); n != 0 || d != nil {
			t.Errorf("verdict %+v: %.0f allocations, discrepancy %v; want 0, nil", v, n, d)
		}
	}
	d = crashVerdict{state: other, hasState: true}.discrepancy(at, b0, b1)
	want := []string{"recovered a0a1a2a3a4a5a6a7", "pre-op    0001020304050607", "post-op   0102030405060708"}
	if d == nil || !slices.Equal(d.Details[len(d.Details)-3:], want) {
		t.Errorf("discrepancy = %+v, want details ending %q", d, want)
	}
}

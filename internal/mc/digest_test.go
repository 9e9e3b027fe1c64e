package mc

import (
	"math/rand"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

// TestCrashDigestIsTheMaskedImage: the crash memo's key is the media
// under the regions with the masked bytes taken out. Two media that
// differ only under Mask digest equal; one changed unmasked byte, or the
// same bytes under another region list, digests differently. And the
// digest reads what a plain read of every region reads: the same requests
// on the same clock.
func TestCrashDigestIsTheMaskedImage(t *testing.T) {
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
	var c crashDigester
	digest := func(img []byte, regions []fault.Region) [32]byte {
		t.Helper()
		p, _, _ := plane(img)
		d, ok := c.digest(p, regions)
		if !ok {
			t.Fatal("a digest of in-range regions failed")
		}
		return d
	}
	base := digest(img, regions)

	masked := append([]byte(nil), img...)
	for _, m := range mask {
		for i := m.Off; i < m.Off+m.Len; i++ {
			masked[i] ^= 0xFF
		}
	}
	if digest(masked, regions) != base {
		t.Error("media that differ only under the mask digest differently")
	}
	for _, r := range regions {
		for _, at := range []int64{r.Off, r.Off + r.Len/2, r.Off + r.Len - 1} {
			if under(mask, at) {
				continue
			}
			changed := append([]byte(nil), masked...)
			changed[at] ^= 1
			if digest(changed, regions) == base {
				t.Errorf("changing unmasked byte %d leaves the digest as it was", at)
			}
		}
	}
	moved := append([]fault.Region(nil), regions...)
	moved[1].Off++
	moved[1].Len--
	if digest(img, moved) == base {
		t.Error("the same media under another region list digest equal")
	}

	p, d, clk := plane(img)
	_, rd, rclk := plane(img)
	if _, ok := c.digest(p, regions); !ok {
		t.Fatal("a digest of in-range regions failed")
	}
	for _, r := range regions {
		if err := rd.ReadAt(make([]byte, r.Len), r.Off); err != nil {
			t.Fatal(err)
		}
	}
	reads, writes := d.Counters()
	wantReads, wantWrites := rd.Counters()
	if reads != wantReads || writes != wantWrites || clk.Now() != rclk.Now() {
		t.Errorf("a digest costs %d reads, %d writes, %v; plain reads of its regions %d, %d, %v",
			reads, writes, clk.Now(), wantReads, wantWrites, rclk.Now())
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

package extfs

import (
	"bytes"
	"testing"

	"mcfs/internal/blockdev"
)

// fuzzVolume is the size of the device every fuzz input is laid over:
// the size the sessions format.
const fuzzVolume = 256 * 1024

// FuzzMountAndFsck: a mount of any bytes — journal replay included — and
// an fsck of what it leaves return an error or problems, never a panic.
// The input overlays the head of a fresh volume, so mutations reach the
// superblock, the bitmaps, the inode table and the journal. Seeded with
// freshly formatted ext2 and ext4 heads, up to their last non-zero byte.
func FuzzMountAndFsck(f *testing.F) {
	for _, opts := range []MkfsOptions{{}, {Journal: true}} {
		dev := blockdev.NewRAM("seed", fuzzVolume, nil)
		if err := Mkfs(dev, opts); err != nil {
			f.Fatal(err)
		}
		img, err := dev.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimRight(img, "\x00"))
	}
	f.Fuzz(func(t *testing.T, head []byte) {
		dev := blockdev.NewRAM("fuzz", fuzzVolume, nil)
		if err := dev.WriteAt(head[:min(len(head), fuzzVolume)], 0); err != nil {
			t.Fatal(err)
		}
		if _, err := MountWith(dev, nil, MountOpts{}); err != nil {
			return
		}
		Fsck(dev)
	})
}

package jffs2sim

import (
	"bytes"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// fuzzFlash is the size of the flash every fuzz input is laid over: the
// smallest that can garbage-collect, so a Create on a nearly full log
// reaches a collection.
const fuzzFlash = 3 * testEraseSize

// FuzzMount: a mount of any flash, a ReadDir of its root, a Getattr of
// every root entry and one Create return errors, never a panic or a hang.
// The input overlays the head of an erased flash, 0xFF past its end.
// Seeded with a fresh flash and with one holding a file, a directory, a
// symlink, a hard link and a rename, up to their last programmed byte, and
// with two crafted inode nodes whose size or offset is negative.
func FuzzMount(f *testing.F) {
	fresh, mtd, _ := newVolumeOf(f, fuzzFlash)
	f.Add(flashHead(f, mtd))
	ino, e := fresh.Create(fresh.Root(), "file", 0644, 0, 0)
	if e == errno.OK {
		_, e = fresh.Write(ino, 0, []byte("jffs2 fuzz seed"))
	}
	if e == errno.OK {
		_, e = fresh.Mkdir(fresh.Root(), "dir", 0755, 0, 0)
	}
	if e == errno.OK {
		_, e = fresh.Symlink("file", fresh.Root(), "sym", 0, 0)
	}
	if e == errno.OK {
		e = fresh.Link(ino, fresh.Root(), "hard")
	}
	if e == errno.OK {
		e = fresh.Rename(fresh.Root(), "file", fresh.Root(), "moved")
	}
	if e != errno.OK {
		f.Fatalf("building the seed volume: %v", e)
	}
	f.Add(flashHead(f, mtd))
	// Inode nodes no log jffs2sim writes holds, CRC and all: a negative
	// size, and data at a negative offset.
	f.Add(craftedHead(f, -1, 0))
	f.Add(craftedHead(f, 16, -8))

	f.Fuzz(func(t *testing.T, head []byte) {
		clk := simclock.New()
		img := bytes.Repeat([]byte{0xFF}, fuzzFlash)
		copy(img, head)
		mtd := blockdev.NewMTD("fuzz", fuzzFlash, testEraseSize, clk)
		if err := mtd.LoadImage(img); err != nil {
			t.Fatal(err)
		}
		fs, err := Mount(mtd, clk)
		if err != nil {
			return
		}
		ents, _ := fs.ReadDir(fs.Root(), nil)
		for _, de := range ents {
			fs.Getattr(de.Ino)
		}
		fs.Create(fs.Root(), "fuzz", 0644, 0, 0)
	})
}

// craftedHead returns the head of a flash holding one file, named by a
// dirent after a valid inode node that states size isize and carries data
// at off.
func craftedHead(tb testing.TB, isize, off int64) []byte {
	tb.Helper()
	f, mtd, _ := newVolumeOf(tb, fuzzFlash)
	ino := f.nextIno
	nd := &inodeInfo{mode: vfs.ModeReg | 0644, nlink: 1, size: isize}
	e := f.appendNode(nodeInode, appendInodeNode(nil, nd, ino, off, []byte("crafted")))
	if e == errno.OK {
		e = f.logDirent(RootIno, ino, "crafted")
	}
	if e != errno.OK {
		tb.Fatalf("crafting the node: %v", e)
	}
	return flashHead(tb, mtd)
}

// flashHead returns the flash's bytes up to the last programmed one.
func flashHead(tb testing.TB, mtd *blockdev.MTD) []byte {
	tb.Helper()
	img := make([]byte, mtd.Size())
	if err := mtd.ReadAt(img, 0); err != nil {
		tb.Fatal(err)
	}
	return bytes.TrimRight(img, "\xff")
}

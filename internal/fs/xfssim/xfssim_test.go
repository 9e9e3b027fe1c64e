package xfssim

import (
	"bytes"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

func newVolume(t *testing.T) (*FS, blockdev.Device, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	dev := blockdev.NewRAM("ram0", MinVolumeSize, clk)
	if err := Mkfs(dev); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	f, err := Mount(dev, clk)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return f, dev, clk
}

func mustCreate(t *testing.T, f *FS, parent vfs.Ino, name string) vfs.Ino {
	t.Helper()
	ino, e := f.Create(parent, name, 0644, 0, 0)
	if e != errno.OK {
		t.Fatalf("Create(%q): %v", name, e)
	}
	return ino
}

func mustMkdir(t *testing.T, f *FS, parent vfs.Ino, name string) vfs.Ino {
	t.Helper()
	ino, e := f.Mkdir(parent, name, 0755, 0, 0)
	if e != errno.OK {
		t.Fatalf("Mkdir(%q): %v", name, e)
	}
	return ino
}

func TestMinimumVolumeSize(t *testing.T) {
	clk := simclock.New()
	small := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := Mkfs(small); err == nil {
		t.Error("Mkfs on 256KB device succeeded; XFS needs 16MB minimum")
	}
}

func TestNoLostFound(t *testing.T) {
	f, _, _ := newVolume(t)
	if _, e := f.Lookup(f.Root(), "lost+found"); e != errno.ENOENT {
		t.Errorf("xfs has lost+found: %v", e)
	}
}

func TestWriteReadMultiBlock(t *testing.T) {
	f, _, _ := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "file")
	data := bytes.Repeat([]byte("xfs extent data "), 2048) // 32 KB, 8 blocks
	n, e := f.Write(ino, 0, data)
	if e != errno.OK || n != len(data) {
		t.Fatalf("Write = (%d, %v)", n, e)
	}
	got, e := f.Read(ino, 0, len(data), nil)
	if e != errno.OK || !bytes.Equal(got, data) {
		t.Error("multi-block read mismatch")
	}
	// Sequential growth should stay in one extent.
	ci := f.getInode(uint32(ino))
	extents := 0
	for _, ex := range ci.extents {
		if ex.count > 0 {
			extents++
		}
	}
	if extents != 1 {
		t.Errorf("sequential write used %d extents, want 1", extents)
	}
}

func TestDirSizeTracksEntries(t *testing.T) {
	f, _, _ := newVolume(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	st0, _ := f.Getattr(d)
	if st0.Size%BlockSize == 0 {
		t.Errorf("fresh xfs dir size %d is a block multiple; want entry-byte size", st0.Size)
	}
	mustCreate(t, f, d, "somefile")
	st1, _ := f.Getattr(d)
	if st1.Size <= st0.Size {
		t.Errorf("dir size did not grow: %d -> %d", st0.Size, st1.Size)
	}
	if e := f.Unlink(d, "somefile"); e != errno.OK {
		t.Fatal(e)
	}
	st2, _ := f.Getattr(d)
	if st2.Size != st0.Size {
		t.Errorf("dir size did not shrink back: %d, want %d", st2.Size, st0.Size)
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	f, dev, clk := newVolume(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	ino := mustCreate(t, f, d, "file")
	if _, e := f.Write(ino, 0, []byte("persist")); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	ino2, e := f2.Lookup(d, "file")
	if e != errno.OK || ino2 != ino {
		t.Fatalf("lookup after remount = (%v, %v)", ino2, e)
	}
	got, e := f2.Read(ino2, 0, 7, nil)
	if e != errno.OK || string(got) != "persist" {
		t.Errorf("data after remount = (%q, %v)", got, e)
	}
}

func TestSparseReadZeros(t *testing.T) {
	f, _, _ := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "sparse")
	size := int64(10000)
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatal(e)
	}
	got, e := f.Read(ino, 0, 10000, nil)
	if e != errno.OK || len(got) != 10000 {
		t.Fatalf("read = (%d bytes, %v)", len(got), e)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
}

func TestRenameMoveAndDotDot(t *testing.T) {
	f, _, _ := newVolume(t)
	d1 := mustMkdir(t, f, f.Root(), "d1")
	d2 := mustMkdir(t, f, f.Root(), "d2")
	sub := mustMkdir(t, f, d1, "sub")
	if e := f.Rename(d1, "sub", d2, "moved"); e != errno.OK {
		t.Fatalf("Rename: %v", e)
	}
	up, e := f.Lookup(sub, "..")
	if e != errno.OK || up != d2 {
		t.Errorf(".. = (%v, %v), want %v", up, e, d2)
	}
	st1, _ := f.Getattr(d1)
	st2, _ := f.Getattr(d2)
	if st1.Nlink != 2 || st2.Nlink != 3 {
		t.Errorf("nlink: d1=%d d2=%d", st1.Nlink, st2.Nlink)
	}
}

func TestRenameReplaceFile(t *testing.T) {
	f, _, _ := newVolume(t)
	a := mustCreate(t, f, f.Root(), "a")
	if _, e := f.Write(a, 0, []byte("AAA")); e != errno.OK {
		t.Fatal(e)
	}
	mustCreate(t, f, f.Root(), "b")
	if e := f.Rename(f.Root(), "a", f.Root(), "b"); e != errno.OK {
		t.Fatalf("Rename: %v", e)
	}
	got, e := f.Lookup(f.Root(), "b")
	if e != errno.OK || got != a {
		t.Errorf("b = (%v, %v)", got, e)
	}
	if _, e := f.Lookup(f.Root(), "a"); e != errno.ENOENT {
		t.Error("a still exists")
	}
}

func TestLinkAndSymlink(t *testing.T) {
	f, _, _ := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "file")
	if e := f.Link(ino, f.Root(), "hard"); e != errno.OK {
		t.Fatalf("Link: %v", e)
	}
	st, _ := f.Getattr(ino)
	if st.Nlink != 2 {
		t.Errorf("nlink = %d", st.Nlink)
	}
	lnk, e := f.Symlink("file", f.Root(), "sym", 0, 0)
	if e != errno.OK {
		t.Fatalf("Symlink: %v", e)
	}
	tgt, e := f.Readlink(lnk)
	if e != errno.OK || tgt != "file" {
		t.Errorf("Readlink = (%q, %v)", tgt, e)
	}
}

func TestUsableCapacityDiffersFromExt(t *testing.T) {
	// The log region plus metadata reservations must make xfs free space
	// differ from raw device size; the checker equalizes for this (§3.4).
	f, _, _ := newVolume(t)
	st, _ := f.StatFS()
	raw := int64(MinVolumeSize)
	if st.FreeBytes() >= raw {
		t.Errorf("free bytes %d >= raw device %d", st.FreeBytes(), raw)
	}
	if raw-st.FreeBytes() < int64(LogBlocks)*BlockSize {
		t.Errorf("reservation %d smaller than log region", raw-st.FreeBytes())
	}
}

func TestStatFSRoundtrip(t *testing.T) {
	f, _, _ := newVolume(t)
	before, _ := f.StatFS()
	ino := mustCreate(t, f, f.Root(), "f")
	if _, e := f.Write(ino, 0, make([]byte, 5*BlockSize)); e != errno.OK {
		t.Fatal(e)
	}
	mid, _ := f.StatFS()
	if before.FreeBlocks-mid.FreeBlocks != 5 {
		t.Errorf("free blocks delta = %d, want 5", before.FreeBlocks-mid.FreeBlocks)
	}
	if e := f.Unlink(f.Root(), "f"); e != errno.OK {
		t.Fatal(e)
	}
	after, _ := f.StatFS()
	if after.FreeBlocks != before.FreeBlocks || after.FreeInodes != before.FreeInodes {
		t.Errorf("space not reclaimed: %+v vs %+v", after, before)
	}
}

func TestRmdirSemantics(t *testing.T) {
	f, _, _ := newVolume(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	mustCreate(t, f, d, "f")
	if e := f.Rmdir(f.Root(), "dir"); e != errno.ENOTEMPTY {
		t.Errorf("rmdir non-empty = %v", e)
	}
	if e := f.Unlink(d, "f"); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.Rmdir(f.Root(), "dir"); e != errno.OK {
		t.Errorf("rmdir empty = %v", e)
	}
	if _, e := f.Lookup(f.Root(), "dir"); e != errno.ENOENT {
		t.Error("dir still present")
	}
}

func TestReadDirHasDotEntries(t *testing.T) {
	f, _, _ := newVolume(t)
	ents, e := f.ReadDir(f.Root(), nil)
	if e != errno.OK {
		t.Fatal(e)
	}
	var dot, dotdot bool
	for _, de := range ents {
		if de.Name == "." {
			dot = true
		}
		if de.Name == ".." {
			dotdot = true
		}
	}
	if !dot || !dotdot {
		t.Errorf("ReadDir missing dot entries: %v", ents)
	}
}

func TestFragmentationUsesMultipleExtents(t *testing.T) {
	f, _, _ := newVolume(t)
	a := mustCreate(t, f, f.Root(), "a")
	b := mustCreate(t, f, f.Root(), "b")
	// Interleave writes so each file's allocations cannot stay contiguous.
	buf := make([]byte, BlockSize)
	for i := 0; i < 4; i++ {
		if _, e := f.Write(a, int64(i)*BlockSize, buf); e != errno.OK {
			t.Fatal(e)
		}
		if _, e := f.Write(b, int64(i)*BlockSize, buf); e != errno.OK {
			t.Fatal(e)
		}
	}
	ci := f.getInode(uint32(a))
	extents := 0
	for _, ex := range ci.extents {
		if ex.count > 0 {
			extents++
		}
	}
	if extents < 2 {
		t.Errorf("interleaved writes used %d extents, expected fragmentation", extents)
	}
	// Data still intact.
	got, e := f.Read(a, 0, 4*BlockSize, nil)
	if e != errno.OK || len(got) != 4*BlockSize {
		t.Fatalf("read = (%d, %v)", len(got), e)
	}
}

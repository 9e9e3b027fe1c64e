package extfs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

func newVolume(t *testing.T, opts MkfsOptions) (*FS, blockdev.Device, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := Mkfs(dev, opts); err != nil {
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

func TestMkfsMountBasics(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	if f.FSType() != "ext2" {
		t.Errorf("FSType = %q, want ext2", f.FSType())
	}
	st, e := f.Getattr(f.Root())
	if e != errno.OK || !st.Mode.IsDir() {
		t.Fatalf("root stat = (%+v, %v)", st, e)
	}
	// lost+found exists (the §3.4 special folder).
	lf, e := f.Lookup(f.Root(), "lost+found")
	if e != errno.OK {
		t.Fatalf("lost+found missing: %v", e)
	}
	lfSt, _ := f.Getattr(lf)
	if !lfSt.Mode.IsDir() {
		t.Error("lost+found is not a directory")
	}
}

func TestJournalMakesExt4(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{Journal: true})
	if f.FSType() != "ext4" {
		t.Errorf("FSType = %q, want ext4", f.FSType())
	}
}

func TestNoLostFoundOption(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{NoLostFound: true})
	if _, e := f.Lookup(f.Root(), "lost+found"); e != errno.ENOENT {
		t.Errorf("lost+found present despite NoLostFound: %v", e)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "file")
	data := bytes.Repeat([]byte("extfs data! "), 300) // 3.6 KB, multi-block
	n, e := f.Write(ino, 0, data)
	if e != errno.OK || n != len(data) {
		t.Fatalf("Write = (%d, %v)", n, e)
	}
	got, e := f.Read(ino, 0, len(data)+100, nil)
	if e != errno.OK || !bytes.Equal(got, data) {
		t.Errorf("Read mismatch (len %d vs %d, e=%v)", len(got), len(data), e)
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "sparse")
	if _, e := f.Write(ino, 5000, []byte("tail")); e != errno.OK {
		t.Fatal(e)
	}
	got, e := f.Read(ino, 0, 5004, nil)
	if e != errno.OK {
		t.Fatal(e)
	}
	for i := 0; i < 5000; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, got[i])
		}
	}
	if string(got[5000:]) != "tail" {
		t.Errorf("tail = %q", got[5000:])
	}
}

func TestTruncateThenGrowReadsZeros(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, bytes.Repeat([]byte{0xAA}, 2000)); e != errno.OK {
		t.Fatal(e)
	}
	size := int64(100)
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatal(e)
	}
	size = 2000
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatal(e)
	}
	got, _ := f.Read(ino, 0, 2000, nil)
	for i := 100; i < 2000; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d after shrink+grow = %#x, want 0", i, got[i])
		}
	}
}

func TestDirSizeIsBlockMultiple(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	d := mustMkdir(t, f, f.Root(), "dir")
	st, _ := f.Getattr(d)
	if st.Size != BlockSize {
		t.Errorf("fresh dir size = %d, want %d", st.Size, BlockSize)
	}
	// Adding entries up to a block boundary grows the size in whole
	// blocks (ext behavior, §3.4).
	for i := 0; i < 30; i++ {
		mustCreate(t, f, d, "file-with-a-rather-long-name-to-fill-dir-blocks-"+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	st, _ = f.Getattr(d)
	if st.Size%BlockSize != 0 {
		t.Errorf("dir size %d not a block multiple", st.Size)
	}
	if st.Size <= BlockSize {
		t.Errorf("dir did not grow: %d", st.Size)
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	f, dev, clk := newVolume(t, MkfsOptions{})
	d := mustMkdir(t, f, f.Root(), "dir")
	ino := mustCreate(t, f, d, "file")
	if _, e := f.Write(ino, 0, []byte("persistent")); e != errno.OK {
		t.Fatal(e)
	}
	lnk, e := f.Symlink("../file", d, "sym", 0, 0)
	if e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatalf("Unmount: %v", err)
	}

	f2, err := Mount(dev, clk)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	d2, e := f2.Lookup(f2.Root(), "dir")
	if e != errno.OK || d2 != d {
		t.Fatalf("dir after remount = (%v, %v)", d2, e)
	}
	ino2, e := f2.Lookup(d2, "file")
	if e != errno.OK || ino2 != ino {
		t.Fatalf("file after remount = (%v, %v)", ino2, e)
	}
	got, e := f2.Read(ino2, 0, 100, nil)
	if e != errno.OK || string(got) != "persistent" {
		t.Errorf("data after remount = (%q, %v)", got, e)
	}
	target, e := f2.Readlink(lnk)
	if e != errno.OK || target != "../file" {
		t.Errorf("symlink after remount = (%q, %v)", target, e)
	}
}

func TestDoubleUnmountFails(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := f.Unmount(); err == nil {
		t.Error("double Unmount succeeded")
	}
}

func TestENOSPCOnDataBlocks(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "big")
	st, _ := f.StatFS()
	// Fill nearly all free space, one block at a time.
	var off int64
	buf := make([]byte, BlockSize)
	wrote := int64(0)
	for wrote < st.FreeBlocks+10 { // attempt to overfill
		if _, e := f.Write(ino, off, buf); e != errno.OK {
			if e != errno.ENOSPC && e != errno.EFBIG {
				t.Fatalf("unexpected errno %v", e)
			}
			return // got the expected exhaustion error
		}
		off += BlockSize
		wrote++
	}
	t.Error("never hit ENOSPC or EFBIG")
}

func TestFileTooBig(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "f")
	limit := int64(MaxFileBlocks) * BlockSize
	if _, e := f.Write(ino, limit, []byte("x")); e != errno.EFBIG {
		t.Errorf("write past max file size = %v, want EFBIG", e)
	}
	size := limit + 1
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.EFBIG {
		t.Errorf("truncate past max file size = %v, want EFBIG", e)
	}
}

// TestReadDirOnAColdMount: after a remount, with no child inode cached,
// a listing names every entry with its inode and type, in on-disk order.
// Reading a child's inode must not disturb the directory block the scan
// is reading.
func TestReadDirOnAColdMount(t *testing.T) {
	f, dev, clk := newVolume(t, MkfsOptions{})
	lf, _ := f.Lookup(f.Root(), "lost+found")
	want := []vfs.DirEntry{{Name: ".", Ino: RootIno, Mode: vfs.ModeDir}, {Name: "..", Ino: RootIno, Mode: vfs.ModeDir},
		{Name: "lost+found", Ino: lf, Mode: vfs.ModeDir}}
	for i := 0; i < 12; i++ { // children in two inode-table blocks
		de := vfs.DirEntry{Name: fmt.Sprintf("child-%d", i), Mode: vfs.ModeReg}
		if i%3 == 0 {
			de.Ino, de.Mode = mustMkdir(t, f, f.Root(), de.Name), vfs.ModeDir
		} else {
			de.Ino = mustCreate(t, f, f.Root(), de.Name)
		}
		want = append(want, de)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	g, err := Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	if got, e := g.ReadDir(g.Root(), nil); e != errno.OK || !slices.Equal(got, want) {
		t.Errorf("a cold listing reads (%v)\n%v\nwant\n%v", e, got, want)
	}
}

func TestRenameAndLinkAndReaddir(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	a := mustCreate(t, f, f.Root(), "a")
	if e := f.Link(a, f.Root(), "hard"); e != errno.OK {
		t.Fatalf("Link: %v", e)
	}
	st, _ := f.Getattr(a)
	if st.Nlink != 2 {
		t.Errorf("nlink = %d", st.Nlink)
	}
	d := mustMkdir(t, f, f.Root(), "d")
	if e := f.Rename(f.Root(), "a", d, "moved"); e != errno.OK {
		t.Fatalf("Rename: %v", e)
	}
	if _, e := f.Lookup(f.Root(), "a"); e != errno.ENOENT {
		t.Error("source name still present")
	}
	got, e := f.Lookup(d, "moved")
	if e != errno.OK || got != a {
		t.Errorf("moved = (%v, %v)", got, e)
	}
	ents, e := f.ReadDir(f.Root(), nil)
	if e != errno.OK {
		t.Fatal(e)
	}
	names := map[string]bool{}
	for _, de := range ents {
		names[de.Name] = true
	}
	for _, want := range []string{".", "..", "lost+found", "hard", "d"} {
		if !names[want] {
			t.Errorf("ReadDir missing %q (got %v)", want, names)
		}
	}
}

func TestRenameDirUpdatesDotDot(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	d1 := mustMkdir(t, f, f.Root(), "d1")
	d2 := mustMkdir(t, f, f.Root(), "d2")
	sub := mustMkdir(t, f, d1, "sub")
	if e := f.Rename(d1, "sub", d2, "sub"); e != errno.OK {
		t.Fatalf("Rename: %v", e)
	}
	up, e := f.Lookup(sub, "..")
	if e != errno.OK || up != d2 {
		t.Errorf(".. after dir rename = (%v, %v), want %v", up, e, d2)
	}
}

func TestRenameIntoOwnSubtree(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	d := mustMkdir(t, f, f.Root(), "d")
	sub := mustMkdir(t, f, d, "sub")
	if e := f.Rename(f.Root(), "d", sub, "oops"); e != errno.EINVAL {
		t.Errorf("rename into own subtree = %v, want EINVAL", e)
	}
}

func TestFsckCleanVolume(t *testing.T) {
	f, dev, _ := newVolume(t, MkfsOptions{})
	d := mustMkdir(t, f, f.Root(), "dir")
	ino := mustCreate(t, f, d, "file")
	if _, e := f.Write(ino, 0, bytes.Repeat([]byte{1}, 3000)); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.Unlink(d, "file"); e != errno.OK {
		t.Fatal(e)
	}
	mustCreate(t, f, d, "file2")
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	problems, err := Fsck(dev)
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if len(problems) != 0 {
		t.Errorf("clean volume has problems: %v", problems)
	}
}

func TestFsckDetectsDanglingEntry(t *testing.T) {
	f, dev, _ := newVolume(t, MkfsOptions{})
	mustCreate(t, f, f.Root(), "victim")
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: clear the victim's inode bitmap bit directly on disk.
	l := computeLayout(f.sb.blocksTotal, f.sb.inodesTotal, f.sb.journalLen)
	ibm := make([]byte, BlockSize)
	if err := dev.ReadAt(ibm, int64(l.inodeBitmap)*BlockSize); err != nil {
		t.Fatal(err)
	}
	victim, _ := f.Lookup(f.Root(), "victim")
	bitmapClear(ibm, uint32(victim))
	if err := dev.WriteAt(ibm, int64(l.inodeBitmap)*BlockSize); err != nil {
		t.Fatal(err)
	}
	problems, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range problems {
		if p.Code == "dangling-entry" {
			found = true
		}
	}
	if !found {
		t.Errorf("Fsck missed dangling entry: %v", problems)
	}
}

func TestJournalReplayAfterCrash(t *testing.T) {
	clk := simclock.New()
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := Mkfs(dev, MkfsOptions{Journal: true}); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, f, f.Root(), "committed")

	// Simulate a crash after journal commit but before checkpoint: run
	// only the journal half of Sync by hand.
	var writes []blockWrite
	// Group dirty inodes by table block exactly like Sync does: logging
	// one journal copy per dirty inode would journal conflicting
	// versions of a shared block, and replay order (map iteration here)
	// would decide which one survives.
	blockBufs := make(map[uint32][]byte)
	for ino, ci := range f.inodeCache {
		if !ci.dirty {
			continue
		}
		blk := f.layout.inodeTable + (ino-1)/InodesPerBlock
		buf, ok := blockBufs[blk]
		if !ok {
			buf = make([]byte, BlockSize)
			if err := f.readBlockInto(buf, blk); err != nil {
				t.Fatal(err)
			}
			blockBufs[blk] = buf
		}
		off := ((ino - 1) % InodesPerBlock) * InodeSize
		ci.encode(buf[off : off+InodeSize])
	}
	for blk, buf := range blockBufs {
		writes = append(writes, blockWrite{blk, buf})
	}
	bm := make([]byte, BlockSize)
	copy(bm, f.blockBitmap)
	writes = append(writes, blockWrite{f.layout.blockBitmap, bm})
	im := make([]byte, BlockSize)
	copy(im, f.inodeBitmap)
	writes = append(writes, blockWrite{f.layout.inodeBitmap, im})
	writes = append(writes, blockWrite{0, f.sb.encode(make([]byte, BlockSize))})
	// Staged metadata blocks (directory blocks etc.) are part of the
	// transaction too — Sync journals them alongside the inode table.
	for blk, img := range f.dirtyMeta {
		writes = append(writes, blockWrite{blk, img})
	}
	if err := f.journal.commit(writes); err != nil {
		t.Fatal(err)
	}
	// CRASH here: the in-place writes never happen; f is abandoned.

	f2, err := Mount(dev, clk) // replay happens inside Mount
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	if _, e := f2.Lookup(f2.Root(), "committed"); e != errno.OK {
		t.Errorf("committed file lost after crash+replay: %v", e)
	}
	problems, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	// The superblock dirty flag may remain, but structure must be clean.
	for _, p := range problems {
		t.Errorf("post-replay problem: %v", p)
	}
}

func TestUncommittedJournalDiscarded(t *testing.T) {
	clk := simclock.New()
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := Mkfs(dev, MkfsOptions{Journal: true}); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	// Write a descriptor with no commit record (crash mid-commit): one
	// logged image, for block 0 — it would clobber the superblock!
	garbage := bytes.Repeat([]byte{0xEE}, BlockSize)
	// Hand-write descriptor + data but no commit block.
	if err := dev.WriteAt(garbage, int64(f.journal.start+1)*BlockSize); err != nil {
		t.Fatal(err)
	}
	desc := make([]byte, BlockSize)
	desc[0], desc[1], desc[2], desc[3] = 0x53, 0x44, 0x44, 0x4A // "JDDS" little-endian of jMagicDesc
	// Use the real encoding instead: commit() would write it; do manually.
	le := func(b []byte, off int, v uint32) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	}
	le(desc, 0, jMagicDesc)
	le(desc, 4, 99)
	le(desc, 8, 1)
	le(desc, 12, 0)
	if err := dev.WriteAt(desc, int64(f.journal.start)*BlockSize); err != nil {
		t.Fatal(err)
	}

	f2, err := Mount(dev, clk)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	// The garbage transaction must NOT have been applied to block 0.
	if f2.sb.blocksTotal == 0 {
		t.Error("uncommitted journal transaction was replayed")
	}
}

func TestStatFSAccounting(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	before, _ := f.StatFS()
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, make([]byte, 3*BlockSize)); e != errno.OK {
		t.Fatal(e)
	}
	after, _ := f.StatFS()
	if before.FreeBlocks-after.FreeBlocks != 3 {
		t.Errorf("free blocks dropped by %d, want 3", before.FreeBlocks-after.FreeBlocks)
	}
	if before.FreeInodes-after.FreeInodes != 1 {
		t.Errorf("free inodes dropped by %d, want 1", before.FreeInodes-after.FreeInodes)
	}
	if e := f.Unlink(f.Root(), "file"); e != errno.OK {
		t.Fatal(e)
	}
	final, _ := f.StatFS()
	if final.FreeBlocks != before.FreeBlocks || final.FreeInodes != before.FreeInodes {
		t.Errorf("space not reclaimed: %+v vs %+v", final, before)
	}
}

func TestMetadataCachedUntilSync(t *testing.T) {
	// Creating a file dirties in-memory metadata; the on-disk inode
	// bitmap must be stale until Sync. This is the in-memory state that
	// §3.2 is about.
	f, dev, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "file")
	ibm := make([]byte, BlockSize)
	if err := dev.ReadAt(ibm, int64(f.layout.inodeBitmap)*BlockSize); err != nil {
		t.Fatal(err)
	}
	if bitmapGet(ibm, uint32(ino)) {
		t.Fatal("inode bitmap written through before Sync; metadata is not cached")
	}
	if e := f.Sync(); e != errno.OK {
		t.Fatal(e)
	}
	if err := dev.ReadAt(ibm, int64(f.layout.inodeBitmap)*BlockSize); err != nil {
		t.Fatal(err)
	}
	if !bitmapGet(ibm, uint32(ino)) {
		t.Error("inode bitmap still stale after Sync")
	}
}

func TestXattrNotSupported(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	var fs vfs.FS = f
	if _, ok := fs.(vfs.XattrFS); ok {
		t.Error("extfs unexpectedly implements XattrFS")
	}
}

package verifs2

import (
	"bytes"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

func newFS(t *testing.T, opts ...Option) *FS {
	t.Helper()
	return New(simclock.New(), opts...)
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

func mustWrite(t *testing.T, f *FS, ino vfs.Ino, off int64, data []byte) {
	t.Helper()
	n, e := f.Write(ino, off, data)
	if e != errno.OK || n != len(data) {
		t.Fatalf("Write: (%d, %v)", n, e)
	}
}

func readAll(t *testing.T, f *FS, ino vfs.Ino) []byte {
	t.Helper()
	st, e := f.Getattr(ino)
	if e != errno.OK {
		t.Fatalf("Getattr: %v", e)
	}
	data, e := f.Read(ino, 0, int(st.Size), nil)
	if e != errno.OK {
		t.Fatalf("Read: %v", e)
	}
	return data
}

func TestBasicWriteRead(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	data := []byte("hello verifs2")
	mustWrite(t, f, ino, 0, data)
	if got := readAll(t, f, ino); !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
}

func TestWriteSpanningBlocks(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	data := bytes.Repeat([]byte("0123456789abcdef"), 600) // 9600 bytes > 2 blocks
	mustWrite(t, f, ino, 0, data)
	if got := readAll(t, f, ino); !bytes.Equal(got, data) {
		t.Error("multi-block write mismatch")
	}
	// Overwrite straddling a block boundary.
	mustWrite(t, f, ino, 4090, []byte("BOUNDARY"))
	got, e := f.Read(ino, 4090, 8, nil)
	if e != errno.OK || string(got) != "BOUNDARY" {
		t.Errorf("straddling read = (%q, %v)", got, e)
	}
}

func TestHoleReadsZero(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	mustWrite(t, f, ino, 0, []byte("x"))
	mustWrite(t, f, ino, 5000, []byte("y")) // hole spans a block boundary
	got := readAll(t, f, ino)
	if got[0] != 'x' || got[5000] != 'y' {
		t.Fatal("payload bytes wrong")
	}
	for i := 1; i < 5000; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, got[i])
		}
	}
}

func TestHoleBugExposesGarbage(t *testing.T) {
	f := newFS(t, WithHoleBug())
	ino := mustCreate(t, f, f.Root(), "file")
	mustWrite(t, f, ino, 0, []byte("x"))
	mustWrite(t, f, ino, 100, []byte("y"))
	got := readAll(t, f, ino)
	garbage := false
	for i := 1; i < 100; i++ {
		if got[i] != 0 {
			garbage = true
		}
	}
	if !garbage {
		t.Error("hole bug enabled but gap reads as zeros")
	}
}

func TestSizeBugSkipsAppendWithinCapacity(t *testing.T) {
	f := newFS(t, WithSizeBug())
	ino := mustCreate(t, f, f.Root(), "file")
	// First write allocates a whole block (4096 capacity), size=10.
	mustWrite(t, f, ino, 0, make([]byte, 10))
	st, _ := f.Getattr(ino)
	if st.Size != 10 {
		t.Fatalf("initial size = %d", st.Size)
	}
	// Append within the allocated block: buggy code forgets the size.
	mustWrite(t, f, ino, 10, make([]byte, 10))
	st, _ = f.Getattr(ino)
	if st.Size != 10 {
		t.Errorf("size bug enabled but size = %d after in-capacity append", st.Size)
	}
	// Append beyond capacity: buggy code does update.
	mustWrite(t, f, ino, 10, make([]byte, 5000))
	st, _ = f.Getattr(ino)
	if st.Size != 5010 {
		t.Errorf("size after capacity-growing write = %d, want 5010", st.Size)
	}
}

func TestENOSPC(t *testing.T) {
	f := New(simclock.New(), WithCapacity(2, 100)) // 2 blocks = 8 KiB
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, make([]byte, 8192)); e != errno.OK {
		t.Fatalf("fill: %v", e)
	}
	if _, e := f.Write(ino, 8192, []byte("more")); e != errno.ENOSPC {
		t.Errorf("overfill = %v, want ENOSPC", e)
	}
	// Shrinking releases blocks, allowing new writes.
	size := int64(0)
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(ino, 0, []byte("fits")); e != errno.OK {
		t.Errorf("write after shrink = %v", e)
	}
}

func TestUnlinkReleasesBlocks(t *testing.T) {
	f := New(simclock.New(), WithCapacity(2, 100))
	ino := mustCreate(t, f, f.Root(), "file")
	mustWrite(t, f, ino, 0, make([]byte, 8192))
	if e := f.Unlink(f.Root(), "file"); e != errno.OK {
		t.Fatal(e)
	}
	ino2 := mustCreate(t, f, f.Root(), "file2")
	if _, e := f.Write(ino2, 0, make([]byte, 8192)); e != errno.OK {
		t.Errorf("write after unlink = %v, blocks not released", e)
	}
}

func TestRenameSimple(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "old")
	mustWrite(t, f, ino, 0, []byte("data"))
	if e := f.Rename(f.Root(), "old", f.Root(), "new"); e != errno.OK {
		t.Fatalf("Rename: %v", e)
	}
	if _, e := f.Lookup(f.Root(), "old"); e != errno.ENOENT {
		t.Error("old name still present")
	}
	got, e := f.Lookup(f.Root(), "new")
	if e != errno.OK || got != ino {
		t.Errorf("Lookup(new) = (%v, %v)", got, e)
	}
}

func TestRenameAcrossDirs(t *testing.T) {
	f := newFS(t)
	d1 := mustMkdir(t, f, f.Root(), "d1")
	d2 := mustMkdir(t, f, f.Root(), "d2")
	sub := mustMkdir(t, f, d1, "sub")
	if e := f.Rename(d1, "sub", d2, "sub2"); e != errno.OK {
		t.Fatalf("Rename dir: %v", e)
	}
	// ".." of the moved dir must now resolve to d2.
	got, e := f.Lookup(sub, "..")
	if e != errno.OK || got != d2 {
		t.Errorf("moved dir .. = (%v, %v), want %v", got, e, d2)
	}
	// nlink bookkeeping: d1 lost a subdir, d2 gained one.
	st1, _ := f.Getattr(d1)
	st2, _ := f.Getattr(d2)
	if st1.Nlink != 2 || st2.Nlink != 3 {
		t.Errorf("nlink d1=%d d2=%d, want 2 and 3", st1.Nlink, st2.Nlink)
	}
}

func TestRenameOverwritesFile(t *testing.T) {
	f := newFS(t)
	a := mustCreate(t, f, f.Root(), "a")
	mustWrite(t, f, a, 0, []byte("content-a"))
	mustCreate(t, f, f.Root(), "b")
	if e := f.Rename(f.Root(), "a", f.Root(), "b"); e != errno.OK {
		t.Fatalf("Rename: %v", e)
	}
	got, e := f.Lookup(f.Root(), "b")
	if e != errno.OK || got != a {
		t.Errorf("b = (%v, %v), want inode of a", got, e)
	}
	if data := readAll(t, f, a); string(data) != "content-a" {
		t.Errorf("content = %q", data)
	}
}

func TestRenameErrnoCases(t *testing.T) {
	f := newFS(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	mustMkdir(t, f, d, "inner")
	mustCreate(t, f, f.Root(), "file")
	full := mustMkdir(t, f, f.Root(), "full")
	mustCreate(t, f, full, "occupant")

	cases := []struct {
		name             string
		op, on           vfs.Ino
		oldName, newName string
		want             errno.Errno
	}{
		{"missing source", f.Root(), f.Root(), "nope", "x", errno.ENOENT},
		{"dir over file", f.Root(), f.Root(), "dir", "file", errno.ENOTDIR},
		{"file over dir", f.Root(), f.Root(), "file", "dir", errno.EISDIR},
		{"dir over non-empty dir", f.Root(), f.Root(), "dir", "full", errno.ENOTEMPTY},
		{"into own subtree", f.Root(), d, "dir", "x", errno.EINVAL},
		{"dot source", f.Root(), f.Root(), ".", "x", errno.EINVAL},
	}
	for _, c := range cases {
		if got := f.Rename(c.op, c.oldName, c.on, c.newName); got != c.want {
			t.Errorf("%s: Rename = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRenameSameFileNoop(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "a")
	if e := f.Link(ino, f.Root(), "b"); e != errno.OK {
		t.Fatal(e)
	}
	// rename("a", "b") where both are links to the same inode: POSIX no-op.
	if e := f.Rename(f.Root(), "a", f.Root(), "b"); e != errno.OK {
		t.Fatalf("same-inode rename: %v", e)
	}
	if _, e := f.Lookup(f.Root(), "a"); e != errno.OK {
		t.Error("a removed by no-op rename")
	}
}

func TestHardLink(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "orig")
	mustWrite(t, f, ino, 0, []byte("shared"))
	if e := f.Link(ino, f.Root(), "alias"); e != errno.OK {
		t.Fatalf("Link: %v", e)
	}
	st, _ := f.Getattr(ino)
	if st.Nlink != 2 {
		t.Errorf("nlink = %d, want 2", st.Nlink)
	}
	// Write through one name, read through the other.
	mustWrite(t, f, ino, 0, []byte("SHARED"))
	alias, _ := f.Lookup(f.Root(), "alias")
	if alias != ino {
		t.Fatalf("alias inode %v != %v", alias, ino)
	}
	// Unlink one name: data survives.
	if e := f.Unlink(f.Root(), "orig"); e != errno.OK {
		t.Fatal(e)
	}
	st, e := f.Getattr(ino)
	if e != errno.OK || st.Nlink != 1 {
		t.Errorf("after unlink: (%+v, %v)", st, e)
	}
	// Unlink the last name: inode goes away.
	if e := f.Unlink(f.Root(), "alias"); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Getattr(ino); e != errno.ENOENT {
		t.Errorf("inode survived last unlink: %v", e)
	}
}

func TestLinkToDirIsEPERM(t *testing.T) {
	f := newFS(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	if e := f.Link(d, f.Root(), "alias"); e != errno.EPERM {
		t.Errorf("Link(dir) = %v, want EPERM", e)
	}
}

func TestSymlink(t *testing.T) {
	f := newFS(t)
	ino, e := f.Symlink("/target/path", f.Root(), "link", 0, 0)
	if e != errno.OK {
		t.Fatalf("Symlink: %v", e)
	}
	target, e := f.Readlink(ino)
	if e != errno.OK || target != "/target/path" {
		t.Errorf("Readlink = (%q, %v)", target, e)
	}
	st, _ := f.Getattr(ino)
	if !st.Mode.IsSymlink() {
		t.Error("mode is not symlink")
	}
	if st.Size != int64(len("/target/path")) {
		t.Errorf("symlink size = %d", st.Size)
	}
	// Readlink on a regular file is EINVAL.
	reg := mustCreate(t, f, f.Root(), "reg")
	if _, e := f.Readlink(reg); e != errno.EINVAL {
		t.Errorf("Readlink(file) = %v, want EINVAL", e)
	}
}

func TestXattrs(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	if e := f.SetXattr(ino, "user.b", []byte("2")); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.SetXattr(ino, "user.a", []byte("1")); e != errno.OK {
		t.Fatal(e)
	}
	v, e := f.GetXattr(ino, "user.a")
	if e != errno.OK || string(v) != "1" {
		t.Errorf("GetXattr = (%q, %v)", v, e)
	}
	if _, e := f.GetXattr(ino, "user.none"); e != errno.ENODATA {
		t.Errorf("GetXattr(missing) = %v, want ENODATA", e)
	}
	names, e := f.ListXattr(ino)
	if e != errno.OK || len(names) != 2 || names[0] != "user.a" || names[1] != "user.b" {
		t.Errorf("ListXattr = (%v, %v)", names, e)
	}
	if e := f.RemoveXattr(ino, "user.a"); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.RemoveXattr(ino, "user.a"); e != errno.ENODATA {
		t.Errorf("double RemoveXattr = %v, want ENODATA", e)
	}
}

func TestXattrValueIsCopied(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	buf := []byte("mutable")
	if e := f.SetXattr(ino, "user.k", buf); e != errno.OK {
		t.Fatal(e)
	}
	buf[0] = 'X'
	v, _ := f.GetXattr(ino, "user.k")
	if string(v) != "mutable" {
		t.Errorf("xattr aliased caller buffer: %q", v)
	}
}

func TestCheckpointRestoreFullState(t *testing.T) {
	f := newFS(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	ino := mustCreate(t, f, d, "file")
	mustWrite(t, f, ino, 0, []byte("v1"))
	if e := f.SetXattr(ino, "user.k", []byte("xv")); e != errno.OK {
		t.Fatal(e)
	}
	lnk, e := f.Symlink("file", d, "ln", 0, 0)
	if e != errno.OK {
		t.Fatal(e)
	}
	if e := f.CheckpointState(7); e != errno.OK {
		t.Fatal(e)
	}
	// Mutate everything.
	mustWrite(t, f, ino, 0, []byte("v2"))
	if e := f.RemoveXattr(ino, "user.k"); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.Rename(d, "file", f.Root(), "moved"); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.RestoreState(7); e != errno.OK {
		t.Fatal(e)
	}
	// Everything back.
	got, e := f.Lookup(d, "file")
	if e != errno.OK || got != ino {
		t.Errorf("Lookup after restore = (%v, %v)", got, e)
	}
	if data := readAll(t, f, ino); string(data) != "v1" {
		t.Errorf("data after restore = %q", data)
	}
	if v, e := f.GetXattr(ino, "user.k"); e != errno.OK || string(v) != "xv" {
		t.Errorf("xattr after restore = (%q, %v)", v, e)
	}
	if target, e := f.Readlink(lnk); e != errno.OK || target != "file" {
		t.Errorf("symlink after restore = (%q, %v)", target, e)
	}
	if _, e := f.Lookup(f.Root(), "moved"); e != errno.ENOENT {
		t.Error("post-checkpoint rename survived restore")
	}
}

func TestRestoreRestoresBlockAccounting(t *testing.T) {
	f := New(simclock.New(), WithCapacity(4, 100))
	ino := mustCreate(t, f, f.Root(), "file")
	mustWrite(t, f, ino, 0, make([]byte, 4096))
	if e := f.CheckpointState(1); e != errno.OK {
		t.Fatal(e)
	}
	mustWrite(t, f, ino, 4096, make([]byte, 3*4096)) // use all capacity
	if e := f.RestoreState(1); e != errno.OK {
		t.Fatal(e)
	}
	// After restore only 1 block is used again; 3 more must fit.
	if _, e := f.Write(ino, 4096, make([]byte, 3*4096)); e != errno.OK {
		t.Errorf("write after restore = %v; usedBlocks not restored", e)
	}
}

func TestImplementsFullInterfaceSet(t *testing.T) {
	var f vfs.FS = newFS(t)
	for name, ok := range map[string]bool{
		"RenameFS":     func() bool { _, ok := f.(vfs.RenameFS); return ok }(),
		"LinkFS":       func() bool { _, ok := f.(vfs.LinkFS); return ok }(),
		"SymlinkFS":    func() bool { _, ok := f.(vfs.SymlinkFS); return ok }(),
		"XattrFS":      func() bool { _, ok := f.(vfs.XattrFS); return ok }(),
		"Checkpointer": func() bool { _, ok := f.(vfs.Checkpointer); return ok }(),
	} {
		if !ok {
			t.Errorf("VeriFS2 does not implement %s", name)
		}
	}
}

func TestDirectorySizeByEntries(t *testing.T) {
	f := newFS(t)
	st0, _ := f.Getattr(f.Root())
	mustCreate(t, f, f.Root(), "a")
	st1, _ := f.Getattr(f.Root())
	if st1.Size <= st0.Size {
		t.Errorf("dir size did not grow with entries: %d -> %d", st0.Size, st1.Size)
	}
}

func TestInodeLimit(t *testing.T) {
	f := New(simclock.New(), WithCapacity(100, 3)) // root + 2
	mustCreate(t, f, f.Root(), "a")
	mustCreate(t, f, f.Root(), "b")
	if _, e := f.Create(f.Root(), "c", 0644, 0, 0); e != errno.ENOSPC {
		t.Errorf("Create past inode limit = %v, want ENOSPC", e)
	}
}

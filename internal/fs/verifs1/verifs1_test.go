package verifs1

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

func TestRootExists(t *testing.T) {
	f := newFS(t)
	st, e := f.Getattr(f.Root())
	if e != errno.OK {
		t.Fatalf("Getattr(root): %v", e)
	}
	if !st.Mode.IsDir() {
		t.Error("root is not a directory")
	}
	if st.Nlink != 2 {
		t.Errorf("root nlink = %d, want 2", st.Nlink)
	}
}

func TestCreateLookup(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file1")
	got, e := f.Lookup(f.Root(), "file1")
	if e != errno.OK || got != ino {
		t.Errorf("Lookup = (%v, %v), want (%v, OK)", got, e, ino)
	}
	if _, e := f.Lookup(f.Root(), "nonexistent"); e != errno.ENOENT {
		t.Errorf("Lookup(nonexistent) = %v, want ENOENT", e)
	}
	if _, e := f.Create(f.Root(), "file1", 0644, 0, 0); e != errno.EEXIST {
		t.Errorf("duplicate Create = %v, want EEXIST", e)
	}
}

func TestLookupDotAndDotDot(t *testing.T) {
	f := newFS(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	if got, e := f.Lookup(d, "."); e != errno.OK || got != d {
		t.Errorf("Lookup(.) = (%v, %v)", got, e)
	}
	if got, e := f.Lookup(d, ".."); e != errno.OK || got != f.Root() {
		t.Errorf("Lookup(..) = (%v, %v)", got, e)
	}
	if got, e := f.Lookup(f.Root(), ".."); e != errno.OK || got != f.Root() {
		t.Errorf("root Lookup(..) = (%v, %v), want root", got, e)
	}
}

func TestLookupOnFileIsENOTDIR(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file1")
	if _, e := f.Lookup(ino, "x"); e != errno.ENOTDIR {
		t.Errorf("Lookup on file = %v, want ENOTDIR", e)
	}
}

func TestWriteRead(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file1")
	data := []byte("the quick brown fox")
	n, e := f.Write(ino, 0, data)
	if e != errno.OK || n != len(data) {
		t.Fatalf("Write = (%d, %v)", n, e)
	}
	got, e := f.Read(ino, 0, 100, nil)
	if e != errno.OK || !bytes.Equal(got, data) {
		t.Errorf("Read = (%q, %v)", got, e)
	}
	// Partial read.
	got, e = f.Read(ino, 4, 5, nil)
	if e != errno.OK || string(got) != "quick" {
		t.Errorf("partial Read = (%q, %v)", got, e)
	}
	// Read at EOF.
	got, e = f.Read(ino, int64(len(data)), 10, nil)
	if e != errno.OK || len(got) != 0 {
		t.Errorf("read at EOF = (%q, %v)", got, e)
	}
	st, _ := f.Getattr(ino)
	if st.Size != int64(len(data)) {
		t.Errorf("size = %d, want %d", st.Size, len(data))
	}
}

func TestWritePastEOFZeroFillsHole(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file1")
	if _, e := f.Write(ino, 0, []byte("ab")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(ino, 10, []byte("cd")); e != errno.OK {
		t.Fatal(e)
	}
	got, e := f.Read(ino, 0, 12, nil)
	if e != errno.OK {
		t.Fatal(e)
	}
	want := append([]byte("ab"), 0, 0, 0, 0, 0, 0, 0, 0, 'c', 'd')
	if !bytes.Equal(got, want) {
		t.Errorf("hole content = %v, want %v", got, want)
	}
}

func TestOverwriteMiddle(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file1")
	if _, e := f.Write(ino, 0, []byte("aaaaaaaa")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(ino, 2, []byte("XY")); e != errno.OK {
		t.Fatal(e)
	}
	got, _ := f.Read(ino, 0, 8, nil)
	if string(got) != "aaXYaaaa" {
		t.Errorf("overwrite = %q", got)
	}
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file1")
	if _, e := f.Write(ino, 0, []byte("0123456789")); e != errno.OK {
		t.Fatal(e)
	}
	size := int64(4)
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatalf("shrink: %v", e)
	}
	got, _ := f.Read(ino, 0, 100, nil)
	if string(got) != "0123" {
		t.Errorf("after shrink = %q", got)
	}
	// Grow back: the exposed region must read as zeros.
	size = 8
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatalf("grow: %v", e)
	}
	got, _ = f.Read(ino, 0, 100, nil)
	want := []byte{'0', '1', '2', '3', 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Errorf("after grow = %v, want %v", got, want)
	}
}

func TestTruncateBugLeavesGarbage(t *testing.T) {
	f := newFS(t, WithTruncateBug())
	ino := mustCreate(t, f, f.Root(), "file1")
	if _, e := f.Write(ino, 0, []byte("ab")); e != errno.OK {
		t.Fatal(e)
	}
	size := int64(8)
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatal(e)
	}
	got, _ := f.Read(ino, 0, 8, nil)
	zeros := true
	for _, b := range got[2:] {
		if b != 0 {
			zeros = false
		}
	}
	if zeros {
		t.Error("truncate bug enabled but extension reads as zeros")
	}
}

func TestTruncateNegativeSize(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file1")
	size := int64(-1)
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.EINVAL {
		t.Errorf("negative truncate = %v, want EINVAL", e)
	}
}

func TestTruncateDirIsEISDIR(t *testing.T) {
	f := newFS(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	size := int64(0)
	if e := f.Setattr(d, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.EISDIR {
		t.Errorf("truncate dir = %v, want EISDIR", e)
	}
}

func TestMkdirRmdir(t *testing.T) {
	f := newFS(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	st, _ := f.Getattr(d)
	if !st.Mode.IsDir() || st.Nlink != 2 {
		t.Errorf("new dir stat = %+v", st)
	}
	rootSt, _ := f.Getattr(f.Root())
	if rootSt.Nlink != 3 {
		t.Errorf("root nlink after mkdir = %d, want 3", rootSt.Nlink)
	}
	if e := f.Rmdir(f.Root(), "dir"); e != errno.OK {
		t.Fatalf("Rmdir: %v", e)
	}
	if _, e := f.Lookup(f.Root(), "dir"); e != errno.ENOENT {
		t.Errorf("Lookup after rmdir = %v", e)
	}
	rootSt, _ = f.Getattr(f.Root())
	if rootSt.Nlink != 2 {
		t.Errorf("root nlink after rmdir = %d, want 2", rootSt.Nlink)
	}
}

func TestRmdirNonEmpty(t *testing.T) {
	f := newFS(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	mustCreate(t, f, d, "file")
	if e := f.Rmdir(f.Root(), "dir"); e != errno.ENOTEMPTY {
		t.Errorf("Rmdir(non-empty) = %v, want ENOTEMPTY", e)
	}
}

func TestRmdirOnFile(t *testing.T) {
	f := newFS(t)
	mustCreate(t, f, f.Root(), "file")
	if e := f.Rmdir(f.Root(), "file"); e != errno.ENOTDIR {
		t.Errorf("Rmdir(file) = %v, want ENOTDIR", e)
	}
}

func TestUnlinkOnDir(t *testing.T) {
	f := newFS(t)
	mustMkdir(t, f, f.Root(), "dir")
	if e := f.Unlink(f.Root(), "dir"); e != errno.EISDIR {
		t.Errorf("Unlink(dir) = %v, want EISDIR", e)
	}
}

func TestUnlinkFreesInode(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	if e := f.Unlink(f.Root(), "file"); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Getattr(ino); e != errno.ENOENT {
		t.Errorf("Getattr after unlink = %v, want ENOENT", e)
	}
}

func TestReadDir(t *testing.T) {
	f := newFS(t)
	mustCreate(t, f, f.Root(), "b")
	mustCreate(t, f, f.Root(), "a")
	mustMkdir(t, f, f.Root(), "d")
	ents, e := f.ReadDir(f.Root(), nil)
	if e != errno.OK {
		t.Fatal(e)
	}
	// . .. plus three entries, in insertion order.
	if len(ents) != 5 {
		t.Fatalf("got %d entries: %v", len(ents), ents)
	}
	if ents[0].Name != "." || ents[1].Name != ".." {
		t.Errorf("first entries = %q, %q", ents[0].Name, ents[1].Name)
	}
	if ents[2].Name != "b" || ents[3].Name != "a" || ents[4].Name != "d" {
		t.Errorf("entry order = %q %q %q", ents[2].Name, ents[3].Name, ents[4].Name)
	}
	if !ents[4].Mode.IsDir() {
		t.Error("dir entry mode not directory")
	}
}

func TestInodeExhaustion(t *testing.T) {
	f := New(simclock.New(), WithMaxInodes(3)) // root consumes one of the three
	mustCreate(t, f, f.Root(), "a")
	mustCreate(t, f, f.Root(), "b")
	if _, e := f.Create(f.Root(), "d", 0644, 0, 0); e != errno.ENOSPC {
		t.Errorf("Create past inode limit = %v, want ENOSPC", e)
	}
	// Deleting frees an inode for reuse.
	if e := f.Unlink(f.Root(), "a"); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Create(f.Root(), "d", 0644, 0, 0); e != errno.OK {
		t.Errorf("Create after free = %v", e)
	}
}

func TestChmodChown(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	mode := vfs.Mode(0600)
	uid, gid := uint32(10), uint32(20)
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrMode | vfs.AttrUID | vfs.AttrGID, Mode: mode, UID: uid, GID: gid}); e != errno.OK {
		t.Fatal(e)
	}
	st, _ := f.Getattr(ino)
	if st.Mode.Perm() != 0600 || !st.Mode.IsRegular() {
		t.Errorf("mode after chmod = %o", st.Mode)
	}
	if st.UID != 10 || st.GID != 20 {
		t.Errorf("uid/gid = %d/%d", st.UID, st.GID)
	}
}

func TestCheckpointRestore(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, []byte("before")); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.CheckpointState(42); e != errno.OK {
		t.Fatalf("CheckpointState: %v", e)
	}
	if f.SnapshotCount() != 1 {
		t.Errorf("SnapshotCount = %d", f.SnapshotCount())
	}
	// Mutate heavily.
	if _, e := f.Write(ino, 0, []byte("AFTER!")); e != errno.OK {
		t.Fatal(e)
	}
	mustMkdir(t, f, f.Root(), "newdir")
	if e := f.Unlink(f.Root(), "file"); e != errno.OK {
		t.Fatal(e)
	}
	// Restore.
	if e := f.RestoreState(42); e != errno.OK {
		t.Fatalf("RestoreState: %v", e)
	}
	if f.SnapshotCount() != 0 {
		t.Errorf("snapshot not discarded after restore: %d", f.SnapshotCount())
	}
	got, e := f.Read(ino, 0, 10, nil)
	if e != errno.OK || string(got) != "before" {
		t.Errorf("after restore Read = (%q, %v)", got, e)
	}
	if _, e := f.Lookup(f.Root(), "newdir"); e != errno.ENOENT {
		t.Errorf("newdir survived restore: %v", e)
	}
}

func TestRestoreMissingKey(t *testing.T) {
	f := newFS(t)
	if e := f.RestoreState(99); e != errno.ENOENT {
		t.Errorf("RestoreState(unknown) = %v, want ENOENT", e)
	}
}

func TestCheckpointIsDeepCopy(t *testing.T) {
	f := newFS(t)
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, []byte("original")); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.CheckpointState(1); e != errno.OK {
		t.Fatal(e)
	}
	// Mutating live data must not corrupt the snapshot.
	if _, e := f.Write(ino, 0, []byte("MUTATED!")); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.RestoreState(1); e != errno.OK {
		t.Fatal(e)
	}
	got, _ := f.Read(ino, 0, 8, nil)
	if string(got) != "original" {
		t.Errorf("snapshot shared memory with live state: %q", got)
	}
}

func TestVeriFS1LacksOptionalOps(t *testing.T) {
	var f vfs.FS = newFS(t)
	if _, ok := f.(vfs.RenameFS); ok {
		t.Error("VeriFS1 must not implement RenameFS (paper §5)")
	}
	if _, ok := f.(vfs.LinkFS); ok {
		t.Error("VeriFS1 must not implement LinkFS")
	}
	if _, ok := f.(vfs.SymlinkFS); ok {
		t.Error("VeriFS1 must not implement SymlinkFS")
	}
	if _, ok := f.(vfs.XattrFS); ok {
		t.Error("VeriFS1 must not implement XattrFS")
	}
	if _, ok := f.(vfs.Checkpointer); !ok {
		t.Error("VeriFS1 must implement Checkpointer")
	}
}

func TestStatFS(t *testing.T) {
	f := New(simclock.New(), WithMaxInodes(10))
	st, e := f.StatFS()
	if e != errno.OK {
		t.Fatal(e)
	}
	if st.TotalInodes != 10 || st.FreeInodes != 9 { // root uses one
		t.Errorf("inodes = %d/%d, want 9/10 free", st.FreeInodes, st.TotalInodes)
	}
	mustCreate(t, f, f.Root(), "f")
	st, _ = f.StatFS()
	if st.FreeInodes != 8 {
		t.Errorf("FreeInodes after create = %d, want 8", st.FreeInodes)
	}
}

func TestStateBytesGrowsWithData(t *testing.T) {
	f := newFS(t)
	before := f.StateBytes()
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, make([]byte, 10000)); e != errno.OK {
		t.Fatal(e)
	}
	if f.StateBytes() <= before {
		t.Error("StateBytes did not grow after writing data")
	}
}

func TestInvalidNames(t *testing.T) {
	f := newFS(t)
	if _, e := f.Create(f.Root(), "a/b", 0644, 0, 0); e != errno.EINVAL {
		t.Errorf("Create(a/b) = %v, want EINVAL", e)
	}
	if _, e := f.Create(f.Root(), "", 0644, 0, 0); e != errno.ENOENT {
		t.Errorf("Create(empty) = %v, want ENOENT", e)
	}
	if _, e := f.Create(f.Root(), ".", 0644, 0, 0); e != errno.EEXIST {
		t.Errorf("Create(.) = %v, want EEXIST", e)
	}
	if _, e := f.Mkdir(f.Root(), "..", 0755, 0, 0); e != errno.EEXIST {
		t.Errorf("Mkdir(..) = %v, want EEXIST", e)
	}
}

func TestTimestampsAdvance(t *testing.T) {
	clk := simclock.New()
	f := New(clk)
	ino, _ := f.Create(f.Root(), "file", 0644, 0, 0)
	st0, _ := f.Getattr(ino)
	clk.Advance(1000)
	if _, e := f.Write(ino, 0, []byte("x")); e != errno.OK {
		t.Fatal(e)
	}
	st1, _ := f.Getattr(ino)
	if st1.Mtime <= st0.Mtime {
		t.Errorf("mtime did not advance: %v -> %v", st0.Mtime, st1.Mtime)
	}
}

package kernel

import (
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// newKernelWithVeriFS2 mounts a fresh VeriFS2 at /mnt.
func newKernelWithVeriFS2(t testing.TB) (*Kernel, *verifs2.FS) {
	t.Helper()
	clk := simclock.New()
	k := New(clk)
	f := verifs2.New(clk)
	spec := FilesystemSpec{
		Type:    "verifs2",
		Mounter: func() (vfs.FS, error) { return f, nil },
	}
	if err := k.Mount("/mnt", spec, MountOptions{}); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return k, f
}

// newKernelWithExt mounts a fresh extfs at /mnt backed by a RAM disk.
func newKernelWithExt(t *testing.T, journal bool) (*Kernel, blockdev.Device) {
	t.Helper()
	clk := simclock.New()
	k := New(clk)
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := extfs.Mkfs(dev, extfs.MkfsOptions{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	spec := FilesystemSpec{
		Type: "ext2",
		Dev:  dev,
		Mounter: func() (vfs.FS, error) {
			return extfs.Mount(dev, clk)
		},
		Unmounter: func(f vfs.FS) error {
			return f.(*extfs.FS).Unmount()
		},
	}
	if err := k.Mount("/mnt", spec, MountOptions{}); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return k, dev
}

func TestOpenCreateWriteReadClose(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, e := k.Open("/mnt/file", vfs.OCreate|vfs.ORdWr, 0644)
	if e != errno.OK {
		t.Fatalf("Open: %v", e)
	}
	if n, e := k.WriteFD(fd, []byte("hello")); e != errno.OK || n != 5 {
		t.Fatalf("WriteFD = (%d, %v)", n, e)
	}
	if _, e := k.Seek(fd, 0, 0); e != errno.OK {
		t.Fatal(e)
	}
	data, e := k.ReadFD(fd, 100)
	if e != errno.OK || string(data) != "hello" {
		t.Errorf("ReadFD = (%q, %v)", data, e)
	}
	if e := k.Close(fd); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Close(fd); e != errno.EBADF {
		t.Errorf("double close = %v, want EBADF", e)
	}
	if _, e := k.ReadFD(fd, 1); e != errno.EBADF {
		t.Errorf("read after close = %v, want EBADF", e)
	}
}

func TestOpenFlags(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	// O_CREAT|O_EXCL on existing file.
	fd, e := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatal(e)
	}
	k.Close(fd)
	if _, e := k.Open("/mnt/f", vfs.OCreate|vfs.OExcl|vfs.OWrOnly, 0644); e != errno.EEXIST {
		t.Errorf("O_EXCL on existing = %v, want EEXIST", e)
	}
	// Open nonexistent without O_CREAT.
	if _, e := k.Open("/mnt/nope", vfs.ORdOnly, 0); e != errno.ENOENT {
		t.Errorf("open missing = %v, want ENOENT", e)
	}
	// Write on O_RDONLY fd.
	fd, _ = k.Open("/mnt/f", vfs.ORdOnly, 0)
	if _, e := k.WriteFD(fd, []byte("x")); e != errno.EBADF {
		t.Errorf("write on rdonly = %v, want EBADF", e)
	}
	k.Close(fd)
	// O_TRUNC resets content.
	fd, _ = k.Open("/mnt/f", vfs.OWrOnly, 0)
	k.WriteFD(fd, []byte("0123456789"))
	k.Close(fd)
	fd, e = k.Open("/mnt/f", vfs.OWrOnly|vfs.OTrunc, 0)
	if e != errno.OK {
		t.Fatal(e)
	}
	k.Close(fd)
	st, _ := k.Stat("/mnt/f")
	if st.Size != 0 {
		t.Errorf("size after O_TRUNC = %d", st.Size)
	}
	// Opening a dir for writing is EISDIR.
	if e := k.Mkdir("/mnt/d", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := k.Open("/mnt/d", vfs.OWrOnly, 0); e != errno.EISDIR {
		t.Errorf("open dir for write = %v, want EISDIR", e)
	}
}

func TestOAppend(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/log", vfs.OCreate|vfs.OWrOnly, 0644)
	k.WriteFD(fd, []byte("first"))
	k.Close(fd)
	fd, e := k.Open("/mnt/log", vfs.OWrOnly|vfs.OAppend, 0)
	if e != errno.OK {
		t.Fatal(e)
	}
	k.WriteFD(fd, []byte("+second"))
	k.Close(fd)
	fd, _ = k.Open("/mnt/log", vfs.ORdOnly, 0)
	data, _ := k.ReadFD(fd, 100)
	k.Close(fd)
	if string(data) != "first+second" {
		t.Errorf("append result = %q", data)
	}
}

func TestPathResolutionDotDot(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	if e := k.Mkdir("/mnt/a", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Mkdir("/mnt/a/b", 0755); e != errno.OK {
		t.Fatal(e)
	}
	fd, e := k.Open("/mnt/a/b/../../target", vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatalf("create via ..: %v", e)
	}
	k.Close(fd)
	if _, e := k.Stat("/mnt/target"); e != errno.OK {
		t.Errorf("target not at root: %v", e)
	}
}

func TestSymlinkResolution(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	if e := k.Mkdir("/mnt/real", 0755); e != errno.OK {
		t.Fatal(e)
	}
	fd, _ := k.Open("/mnt/real/file", vfs.OCreate|vfs.OWrOnly, 0644)
	k.WriteFD(fd, []byte("via-symlink"))
	k.Close(fd)
	if e := k.Symlink("/real", "/mnt/abs"); e != errno.OK {
		t.Fatalf("Symlink: %v", e)
	}
	if e := k.Symlink("real/file", "/mnt/rel"); e != errno.OK {
		t.Fatal(e)
	}
	// Follow absolute symlink mid-path.
	st, e := k.Stat("/mnt/abs/file")
	if e != errno.OK || st.Size != 11 {
		t.Errorf("via abs symlink = (%+v, %v)", st, e)
	}
	// Follow relative symlink at the end.
	st, e = k.Stat("/mnt/rel")
	if e != errno.OK || st.Size != 11 {
		t.Errorf("via rel symlink = (%+v, %v)", st, e)
	}
	// Lstat does not follow.
	st, e = k.Lstat("/mnt/rel")
	if e != errno.OK || !st.Mode.IsSymlink() {
		t.Errorf("Lstat = (%+v, %v)", st, e)
	}
	// Readlink.
	target, e := k.Readlink("/mnt/rel")
	if e != errno.OK || target != "real/file" {
		t.Errorf("Readlink = (%q, %v)", target, e)
	}
}

func TestSymlinkLoopELOOP(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	if e := k.Symlink("/b", "/mnt/a"); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Symlink("/a", "/mnt/b"); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := k.Stat("/mnt/a"); e != errno.ELOOP {
		t.Errorf("symlink loop = %v, want ELOOP", e)
	}
}

func TestMkdirRmdirUnlink(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	if e := k.Mkdir("/mnt/d", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Mkdir("/mnt/d", 0755); e != errno.EEXIST {
		t.Errorf("mkdir twice = %v", e)
	}
	fd, _ := k.Open("/mnt/d/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.Close(fd)
	if e := k.Rmdir("/mnt/d"); e != errno.ENOTEMPTY {
		t.Errorf("rmdir non-empty = %v", e)
	}
	if e := k.Unlink("/mnt/d/f"); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Rmdir("/mnt/d"); e != errno.OK {
		t.Errorf("rmdir = %v", e)
	}
	if e := k.Unlink("/mnt/nope"); e != errno.ENOENT {
		t.Errorf("unlink missing = %v", e)
	}
}

func TestRenameAcrossMountsEXDEV(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	clk := k.Clock()
	f2 := verifs2.New(clk)
	if err := k.Mount("/other", FilesystemSpec{
		Type:    "verifs2",
		Mounter: func() (vfs.FS, error) { return f2, nil },
	}, MountOptions{}); err != nil {
		t.Fatal(err)
	}
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.Close(fd)
	if e := k.Rename("/mnt/f", "/other/f"); e != errno.EXDEV {
		t.Errorf("cross-mount rename = %v, want EXDEV", e)
	}
}

func TestRenameOnVeriFS1IsENOSYS(t *testing.T) {
	clk := simclock.New()
	k := New(clk)
	f := verifs1.New(clk)
	if err := k.Mount("/mnt", FilesystemSpec{
		Type:    "verifs1",
		Mounter: func() (vfs.FS, error) { return f, nil },
	}, MountOptions{}); err != nil {
		t.Fatal(err)
	}
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.Close(fd)
	if e := k.Rename("/mnt/f", "/mnt/g"); e != errno.ENOSYS {
		t.Errorf("rename on VeriFS1 = %v, want ENOSYS", e)
	}
	if e := k.Symlink("t", "/mnt/s"); e != errno.ENOSYS {
		t.Errorf("symlink on VeriFS1 = %v, want ENOSYS", e)
	}
}

func TestRenameHardLinkSameInodeKeepsBothNames(t *testing.T) {
	// rename(2) of one hard link onto another link of the same inode is
	// a POSIX no-op. A buggy kernel would plant a negative dentry for
	// the source name, making a live file invisible to lookups.
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/a", vfs.OCreate|vfs.OWrOnly, 0644)
	k.Close(fd)
	if e := k.Link("/mnt/a", "/mnt/b"); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Rename("/mnt/a", "/mnt/b"); e != errno.OK {
		t.Fatalf("same-inode rename: %v", e)
	}
	if _, e := k.Stat("/mnt/a"); e != errno.OK {
		t.Errorf("source name vanished from lookups after no-op rename: %v", e)
	}
	if _, e := k.Stat("/mnt/b"); e != errno.OK {
		t.Errorf("dest name missing: %v", e)
	}
}

func TestUnmountBusyWithOpenFD(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	if err := k.Unmount("/mnt"); err != errno.EBUSY {
		t.Errorf("unmount with open fd = %v, want EBUSY", err)
	}
	k.Close(fd)
	if err := k.Unmount("/mnt"); err != nil {
		t.Errorf("unmount after close = %v", err)
	}
}

func TestRemountRebuildsFromDisk(t *testing.T) {
	k, _ := newKernelWithExt(t, false)
	fd, e := k.Open("/mnt/keep", vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatal(e)
	}
	k.WriteFD(fd, []byte("durable"))
	k.Close(fd)
	if err := k.Remount("/mnt"); err != nil {
		t.Fatalf("Remount: %v", err)
	}
	fd, e = k.Open("/mnt/keep", vfs.ORdOnly, 0)
	if e != errno.OK {
		t.Fatalf("open after remount: %v", e)
	}
	data, _ := k.ReadFD(fd, 100)
	k.Close(fd)
	if string(data) != "durable" {
		t.Errorf("data after remount = %q", data)
	}
}

func TestDcacheServesRepeatLookups(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	if e := k.Mkdir("/mnt/dir", 0755); e != errno.OK {
		t.Fatal(e)
	}
	m, _, _ := k.MountAt("/mnt")
	_, missesBefore := m.CacheStats()
	for i := 0; i < 5; i++ {
		if _, e := k.Stat("/mnt/dir"); e != errno.OK {
			t.Fatal(e)
		}
	}
	hits, misses := m.CacheStats()
	if misses != missesBefore {
		t.Errorf("repeat lookups missed the dcache: %d -> %d", missesBefore, misses)
	}
	if hits == 0 {
		t.Error("no dcache hits recorded")
	}
}

func TestNegativeDentryCaching(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	if _, e := k.Stat("/mnt/ghost"); e != errno.ENOENT {
		t.Fatal(e)
	}
	m, _, _ := k.MountAt("/mnt")
	_, missesBefore := m.CacheStats()
	if _, e := k.Stat("/mnt/ghost"); e != errno.ENOENT {
		t.Fatal(e)
	}
	if _, misses := m.CacheStats(); misses != missesBefore {
		t.Error("negative lookup not served from cache")
	}
	// Creating the file must clear the negative dentry.
	fd, e := k.Open("/mnt/ghost", vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatalf("create after negative dentry: %v", e)
	}
	k.Close(fd)
	if _, e := k.Stat("/mnt/ghost"); e != errno.OK {
		t.Errorf("stat after create = %v", e)
	}
}

func TestStaleDcacheCausesSpuriousEEXIST(t *testing.T) {
	// Reproduces the paper's second VeriFS1 bug (§6): the FS restores an
	// older state behind the kernel's back WITHOUT invalidating kernel
	// caches; a subsequent mkdir sees the stale positive dentry and
	// reports EEXIST for a directory that does not exist.
	k, f := newKernelWithVeriFS2(t)
	if e := k.Ioctl("/mnt", vfs.IoctlCheckpoint, 1); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Mkdir("/mnt/testdir", 0755); e != errno.OK {
		t.Fatal(e)
	}
	// Restore the pre-mkdir state directly on the FS (not via ioctl), so
	// no invalidation hook is registered: VeriFS2 created with New() has
	// no onRestore set => simulates the buggy behavior.
	if e := f.RestoreState(1); e != errno.OK {
		t.Fatal(e)
	}
	// The directory is gone in the FS...
	if _, e := f.Lookup(f.Root(), "testdir"); e != errno.ENOENT {
		t.Fatalf("expected testdir gone after restore, got %v", e)
	}
	// ...but the kernel's dcache still has it: spurious EEXIST.
	if e := k.Mkdir("/mnt/testdir", 0755); e != errno.EEXIST {
		t.Fatalf("expected the spurious EEXIST from stale dcache, got %v", e)
	}
	// Correct fix: invalidate kernel caches on restore (the FUSE notify
	// APIs). After that, mkdir works.
	inv, err := k.Invalidator("/mnt")
	if err != nil {
		t.Fatal(err)
	}
	inv.InvalAll()
	if e := k.Mkdir("/mnt/testdir", 0755); e != errno.OK {
		t.Errorf("mkdir after invalidation = %v", e)
	}
}

func TestIoctlCheckpointRestoreRoundtrip(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.WriteFD(fd, []byte("v1"))
	k.Close(fd)
	if e := k.Ioctl("/mnt", vfs.IoctlCheckpoint, 7); e != errno.OK {
		t.Fatalf("checkpoint ioctl: %v", e)
	}
	fd, _ = k.Open("/mnt/f", vfs.OWrOnly|vfs.OTrunc, 0)
	k.WriteFD(fd, []byte("version2"))
	k.Close(fd)
	if e := k.Ioctl("/mnt", vfs.IoctlRestore, 7); e != errno.OK {
		t.Fatalf("restore ioctl: %v", e)
	}
	// VeriFS2's onRestore is unset here, so invalidate manually (the
	// FUSE adapter does this automatically; see internal/fuse).
	inv, _ := k.Invalidator("/mnt")
	inv.InvalAll()
	st, e := k.Stat("/mnt/f")
	if e != errno.OK || st.Size != 2 {
		t.Errorf("after restore: (%+v, %v)", st, e)
	}
}

func TestIoctlOnNonCheckpointerFS(t *testing.T) {
	k, _ := newKernelWithExt(t, false)
	if e := k.Ioctl("/mnt", vfs.IoctlCheckpoint, 1); e != errno.ENOTSUP {
		t.Errorf("checkpoint on ext = %v, want ENOTSUP", e)
	}
}

func TestStatfsAndGetDents(t *testing.T) {
	k, _ := newKernelWithExt(t, false)
	st, e := k.Statfs("/mnt")
	if e != errno.OK || st.TotalBlocks == 0 {
		t.Errorf("Statfs = (%+v, %v)", st, e)
	}
	ents, e := k.GetDents("/mnt")
	if e != errno.OK {
		t.Fatal(e)
	}
	found := false
	for _, de := range ents {
		if de.Name == "lost+found" {
			found = true
		}
	}
	if !found {
		t.Errorf("GetDents misses lost+found: %v", ents)
	}
}

func TestXattrSyscalls(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.Close(fd)
	if e := k.SetXattr("/mnt/f", "user.k", []byte("v")); e != errno.OK {
		t.Fatal(e)
	}
	v, e := k.GetXattr("/mnt/f", "user.k")
	if e != errno.OK || string(v) != "v" {
		t.Errorf("GetXattr = (%q, %v)", v, e)
	}
	names, e := k.ListXattr("/mnt/f")
	if e != errno.OK || len(names) != 1 {
		t.Errorf("ListXattr = (%v, %v)", names, e)
	}
	if e := k.RemoveXattr("/mnt/f", "user.k"); e != errno.OK {
		t.Fatal(e)
	}
	// extfs has no xattrs.
	k2, _ := newKernelWithExt(t, false)
	fd, _ = k2.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k2.Close(fd)
	if e := k2.SetXattr("/mnt/f", "user.k", []byte("v")); e != errno.ENOTSUP {
		t.Errorf("SetXattr on ext = %v, want ENOTSUP", e)
	}
}

func TestSyncMountOptionFlushesEveryOp(t *testing.T) {
	clk := simclock.New()
	k := New(clk)
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := extfs.Mkfs(dev, extfs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	spec := FilesystemSpec{
		Type:      "ext2",
		Dev:       dev,
		Mounter:   func() (vfs.FS, error) { return extfs.Mount(dev, clk) },
		Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
	}
	if err := k.Mount("/mnt", spec, MountOptions{Sync: true}); err != nil {
		t.Fatal(err)
	}
	fd, e := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatal(e)
	}
	k.Close(fd)
	// With -o sync the new inode must already be on disk without an
	// explicit fsync: mount a second view and look for it.
	f2, err := extfs.Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, e := f2.Lookup(f2.Root(), "f"); e != errno.OK {
		t.Errorf("file not on disk despite -o sync: %v", e)
	}
}

func TestChmodChownTruncate(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.WriteFD(fd, []byte("0123456789"))
	k.Close(fd)
	if e := k.Chmod("/mnt/f", 0600); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Chown("/mnt/f", 42, 43); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Truncate("/mnt/f", 4); e != errno.OK {
		t.Fatal(e)
	}
	st, _ := k.Stat("/mnt/f")
	if st.Mode.Perm() != 0600 || st.UID != 42 || st.GID != 43 || st.Size != 4 {
		t.Errorf("after chmod/chown/truncate: %+v", st)
	}
}

func TestMountAtLongestPrefix(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	clk := k.Clock()
	f2 := verifs2.New(clk)
	if err := k.Mount("/mnt/inner", FilesystemSpec{
		Type:    "verifs2",
		Mounter: func() (vfs.FS, error) { return f2, nil },
	}, MountOptions{}); err != nil {
		t.Fatal(err)
	}
	m, rest, e := k.MountAt("/mnt/inner/x/y")
	if e != errno.OK || m.Point() != "/mnt/inner" || rest != "/x/y" {
		t.Errorf("MountAt = (%v, %q, %v)", m.Point(), rest, e)
	}
	m, rest, e = k.MountAt("/mnt/file")
	if e != errno.OK || m.Point() != "/mnt" || rest != "/file" {
		t.Errorf("MountAt = (%v, %q, %v)", m.Point(), rest, e)
	}
	if _, _, e := k.MountAt("/elsewhere"); e != errno.ENOENT {
		t.Errorf("MountAt unmounted path = %v", e)
	}
}

func TestSeekWhence(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.ORdWr, 0644)
	defer k.Close(fd)
	k.WriteFD(fd, []byte("0123456789"))
	if pos, e := k.Seek(fd, 2, 0); e != errno.OK || pos != 2 {
		t.Errorf("SEEK_SET = (%d, %v)", pos, e)
	}
	if pos, e := k.Seek(fd, 3, 1); e != errno.OK || pos != 5 {
		t.Errorf("SEEK_CUR = (%d, %v)", pos, e)
	}
	if pos, e := k.Seek(fd, -4, 2); e != errno.OK || pos != 6 {
		t.Errorf("SEEK_END = (%d, %v)", pos, e)
	}
	data, e := k.ReadFD(fd, 4)
	if e != errno.OK || string(data) != "6789" {
		t.Errorf("read after seek = (%q, %v)", data, e)
	}
	if _, e := k.Seek(fd, -100, 0); e != errno.EINVAL {
		t.Errorf("negative seek = %v, want EINVAL", e)
	}
	if _, e := k.Seek(fd, 0, 9); e != errno.EINVAL {
		t.Errorf("bad whence = %v, want EINVAL", e)
	}
}

func TestPReadPWriteDoNotMoveOffset(t *testing.T) {
	k, _ := newKernelWithVeriFS2(t)
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.ORdWr, 0644)
	defer k.Close(fd)
	k.WriteFD(fd, []byte("base"))
	if _, e := k.PWriteFD(fd, 10, []byte("far")); e != errno.OK {
		t.Fatal(e)
	}
	data, e := k.PReadFD(fd, 10, 3)
	if e != errno.OK || string(data) != "far" {
		t.Errorf("PRead = (%q, %v)", data, e)
	}
	// The sequential offset is still after "base": the next WriteFD
	// appends at position 4.
	if _, e := k.WriteFD(fd, []byte("X")); e != errno.OK {
		t.Fatal(e)
	}
	got, e := k.PReadFD(fd, 0, 5)
	if e != errno.OK || string(got) != "baseX" {
		t.Errorf("offset moved by pread/pwrite: (%q, %v)", got, e)
	}
}

func TestFsyncFD(t *testing.T) {
	k, _ := newKernelWithExt(t, true)
	fd, e := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatal(e)
	}
	defer k.Close(fd)
	if _, e := k.WriteFD(fd, []byte("durable")); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.FsyncFD(fd); e != errno.OK {
		t.Errorf("FsyncFD = %v", e)
	}
	if e := k.FsyncFD(kernel_badFD); e != errno.EBADF {
		t.Errorf("FsyncFD(bad) = %v, want EBADF", e)
	}
}

const kernel_badFD = FD(9999)

package fuse

import (
	"testing"

	"mcfs/internal/allocs"
	"mcfs/internal/errno"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// mountOverFUSE mounts a fresh VeriFS of kind ("verifs1" or "verifs2")
// over the FUSE transport at /mnt.
func mountOverFUSE(t *testing.T, kind string, opts ServerOptions) (*kernel.Kernel, *Server) {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	var backing vfs.FS = verifs2.New(clk)
	if kind == "verifs1" {
		backing = verifs1.New(clk)
	}
	srv := NewServer(backing, opts)
	spec := kernel.FilesystemSpec{
		Type:    kind,
		Mounter: func() (vfs.FS, error) { return NewClient(srv, clk), nil },
	}
	if err := k.Mount("/mnt", spec, kernel.MountOptions{}); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return k, srv
}

func TestBasicOpsOverFUSE(t *testing.T) {
	k, _ := mountOverFUSE(t, "verifs2", ServerOptions{})
	if e := k.Mkdir("/mnt/dir", 0755); e != errno.OK {
		t.Fatalf("Mkdir: %v", e)
	}
	fd, e := k.Open("/mnt/dir/file", vfs.OCreate|vfs.ORdWr, 0644)
	if e != errno.OK {
		t.Fatalf("Open: %v", e)
	}
	if _, e := k.WriteFD(fd, []byte("over fuse")); e != errno.OK {
		t.Fatal(e)
	}
	k.Seek(fd, 0, 0)
	data, e := k.ReadFD(fd, 100, nil)
	if e != errno.OK || string(data) != "over fuse" {
		t.Errorf("read = (%q, %v)", data, e)
	}
	k.Close(fd)
	if e := k.Rename("/mnt/dir/file", "/mnt/file"); e != errno.OK {
		t.Errorf("Rename over fuse: %v", e)
	}
	if e := k.SetXattr("/mnt/file", "user.k", []byte("v")); e != errno.OK {
		t.Errorf("SetXattr over fuse: %v", e)
	}
}

func TestFUSEChargesMessageCost(t *testing.T) {
	clk := simclock.New()
	backing := verifs2.New(clk)
	srv := NewServer(backing, ServerOptions{})
	c := NewClient(srv, clk)
	before := clk.Now()
	if _, e := c.Getattr(c.Root()); e != errno.OK {
		t.Fatal(e)
	}
	if clk.Now()-before < messageCost {
		t.Error("FUSE round trip charged no message cost")
	}
}

// TestRoundTripAllocatesNothing: the transport is a function call, so
// with no hub attached a round trip costs its virtual charge and nothing
// on the heap.
func TestRoundTripAllocatesNothing(t *testing.T) {
	clk := simclock.New()
	c := NewClient(NewServer(verifs2.New(clk), ServerOptions{}), clk)
	if n := testing.AllocsPerRun(100, func() { c.Getattr(c.Root()) }); n != 0 {
		t.Errorf("Getattr round trip: %v allocs, want 0", n)
	}
}

// TestOptionalCallsAllocateNothing: rename, link, symlink, readlink and
// the four xattr calls, sent through the kernel and the FUSE transport to
// VeriFS2, allocate nothing in 10,000 round trips each, counted from the
// process's malloc total: the kernel and the server each assert their
// file system's optional interfaces once, not per call, and an assertion
// that misses its call site's cache may allocate. Each call's loop ends
// where it started: a rename and its reverse, a link and the unlink of
// the new name, a setxattr and its removal, and a symlink that ENOSPC
// refuses after both sides sent it on, since VeriFS2 never reuses an
// inode number and a new one would grow its table.
func TestOptionalCallsAllocateNothing(t *testing.T) {
	clk := simclock.New()
	k := kernel.New(clk)
	srv := NewServer(verifs2.New(clk, verifs2.WithCapacity(verifs2.DefaultMaxBlocks, 4)), ServerOptions{})
	spec := kernel.FilesystemSpec{Type: "verifs2", Mounter: func() (vfs.FS, error) { return NewClient(srv, clk), nil }}
	if err := k.Mount("/mnt", spec, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/mnt/a", "/mnt/b"} {
		fd, e := k.Open(path, vfs.OCreate|vfs.OWrOnly, 0o644)
		if e != errno.OK {
			t.Fatal(e)
		}
		k.Close(fd)
	}
	if e := k.Symlink("/a", "/mnt/s"); e != errno.OK {
		t.Fatal(e) // the fourth inode of four
	}
	both := func(first, second errno.Errno) errno.Errno {
		if first != errno.OK {
			return first
		}
		return second
	}
	want := func(got, want errno.Errno) errno.Errno {
		if got != want {
			return got
		}
		return errno.OK
	}
	for _, call := range []struct {
		name string
		do   func() errno.Errno
	}{
		{"rename", func() errno.Errno { return both(k.Rename("/mnt/a", "/mnt/c"), k.Rename("/mnt/c", "/mnt/a")) }},
		{"link", func() errno.Errno { return both(k.Link("/mnt/a", "/mnt/l"), k.Unlink("/mnt/l")) }},
		{"symlink", func() errno.Errno { return want(k.Symlink("/a", "/mnt/t"), errno.ENOSPC) }},
		{"readlink", func() errno.Errno {
			target, e := k.Readlink("/mnt/s")
			if e == errno.OK && target != "/a" {
				return errno.EIO
			}
			return e
		}},
		{"setxattr", func() errno.Errno {
			return both(k.SetXattr("/mnt/a", "user.k", nil), k.RemoveXattr("/mnt/a", "user.k"))
		}},
		{"getxattr", func() errno.Errno {
			_, e := k.GetXattr("/mnt/a", "user.g")
			return e
		}},
		// /b has no attribute, so the list itself takes no memory.
		{"listxattr", func() errno.Errno {
			names, e := k.ListXattr("/mnt/b")
			if e == errno.OK && len(names) != 0 {
				return errno.EIO
			}
			return e
		}},
		{"removexattr", func() errno.Errno { return want(k.RemoveXattr("/mnt/b", "user.k"), errno.ENODATA) }},
	} {
		if call.name == "getxattr" {
			if e := k.SetXattr("/mnt/a", "user.g", nil); e != errno.OK {
				t.Fatal(e)
			}
		}
		var failed errno.Errno
		n := allocs.Count(10_000, func() {
			if e := call.do(); e != errno.OK {
				failed = e
			}
		})
		if failed != errno.OK {
			t.Fatalf("%s: %v", call.name, failed)
		}
		if n != 0 {
			t.Errorf("10000 %s round trips allocate %d times, want 0", call.name, n)
		}
	}
}

func TestVeriFS1OverFUSELacksRename(t *testing.T) {
	clk := simclock.New()
	k := kernel.New(clk)
	backing := verifs1.New(clk)
	srv := NewServer(backing, ServerOptions{})
	if err := k.Mount("/mnt", kernel.FilesystemSpec{
		Type:    "verifs1",
		Mounter: func() (vfs.FS, error) { return NewClient(srv, clk), nil },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.Close(fd)
	// The kernel sends the op; the server answers ENOSYS, like libFUSE
	// for an unimplemented method.
	if e := k.Rename("/mnt/f", "/mnt/g"); e != errno.ENOSYS {
		t.Errorf("rename = %v, want ENOSYS", e)
	}
}

// TestMissingOptionalInterfaceErrnos pins what the server answers for an
// operation its file system does not implement, per operation family.
func TestMissingOptionalInterfaceErrnos(t *testing.T) {
	clk := simclock.New()
	// Embedding the interface hides all VeriFS2 implements beyond vfs.FS.
	c := NewClient(NewServer(struct{ vfs.FS }{verifs2.New(clk)}, ServerOptions{}), clk)
	root := c.Root()
	_, symlink := c.Symlink("t", root, "l", 0, 0)
	_, readlink := c.Readlink(root)
	_, getxattr := c.GetXattr(root, "user.k")
	_, listxattr := c.ListXattr(root)
	for _, tc := range []struct {
		op        string
		got, want errno.Errno
	}{
		{"rename", c.Rename(root, "a", root, "b"), errno.ENOSYS},
		{"link", c.Link(root, root, "b"), errno.ENOSYS},
		{"symlink", symlink, errno.ENOSYS},
		{"readlink", readlink, errno.EINVAL},
		{"setxattr", c.SetXattr(root, "user.k", nil), errno.ENOTSUP},
		{"getxattr", getxattr, errno.ENOTSUP},
		{"listxattr", listxattr, errno.ENOTSUP},
		{"removexattr", c.RemoveXattr(root, "user.k"), errno.ENOTSUP},
		{"checkpoint", c.CheckpointState(1), errno.ENOTSUP},
		{"restore", c.RestoreState(1), errno.ENOTSUP},
		{"discard", c.DiscardState(1), errno.ENOTSUP},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.op, tc.got, tc.want)
		}
	}
}

func TestRestoreInvalidatesKernelCaches(t *testing.T) {
	// The FIXED VeriFS behavior (§6): restore fires the FUSE notify
	// APIs, so the kernel never serves stale dentries.
	k, _ := mountOverFUSE(t, "verifs2", ServerOptions{})
	if e := k.Ioctl("/mnt", vfs.IoctlCheckpoint, 1); e != errno.OK {
		t.Fatalf("checkpoint: %v", e)
	}
	if e := k.Mkdir("/mnt/testdir", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Ioctl("/mnt", vfs.IoctlRestore, 1); e != errno.OK {
		t.Fatalf("restore: %v", e)
	}
	// With invalidation wired up, mkdir must succeed again.
	if e := k.Mkdir("/mnt/testdir", 0755); e != errno.OK {
		t.Errorf("mkdir after restore = %v (stale caches?)", e)
	}
}

// TestRestoreEmptiesDentryCacheOnlyOnSuccess: over FUSE, on both VeriFS
// kinds, a restore that returns OK leaves the mount's dentry cache
// empty, so the next lookup misses and the rolled-back name can be made
// again; a restore of a key nobody checkpointed (ENOENT) changes no
// state and leaves the cache warm.
func TestRestoreEmptiesDentryCacheOnlyOnSuccess(t *testing.T) {
	for _, kind := range []string{"verifs1", "verifs2"} {
		t.Run(kind, func(t *testing.T) {
			k, _ := mountOverFUSE(t, kind, ServerOptions{})
			m, _, e := k.MountAt("/mnt")
			if e != errno.OK {
				t.Fatal(e)
			}
			// statMisses stats path and returns how many dentry-cache
			// misses that cost.
			statMisses := func(path string, want errno.Errno) int64 {
				t.Helper()
				_, before := m.CacheStats()
				if _, e := k.Stat(path); e != want {
					t.Fatalf("stat %s = %v, want %v", path, e, want)
				}
				_, after := m.CacheStats()
				return after - before
			}
			if e := k.Ioctl("/mnt", vfs.IoctlCheckpoint, 1); e != errno.OK {
				t.Fatalf("checkpoint: %v", e)
			}
			if e := k.Mkdir("/mnt/d", 0755); e != errno.OK {
				t.Fatal(e)
			}
			if n := statMisses("/mnt/d", errno.OK); n != 0 {
				t.Fatalf("warm stat missed %d times", n)
			}
			if e := k.Ioctl("/mnt", vfs.IoctlRestore, 2); e != errno.ENOENT {
				t.Fatalf("restore of an unknown key = %v, want ENOENT", e)
			}
			if n := statMisses("/mnt/d", errno.OK); n != 0 {
				t.Errorf("stat after a failed restore missed %d times: the cache was dropped", n)
			}
			if e := k.Ioctl("/mnt", vfs.IoctlRestore, 1); e != errno.OK {
				t.Fatalf("restore: %v", e)
			}
			if n := statMisses("/mnt/d", errno.ENOENT); n == 0 {
				t.Error("stat after a restore hit the cache: it was not dropped")
			}
			if e := k.Mkdir("/mnt/d", 0755); e != errno.OK {
				t.Errorf("mkdir of the rolled-back name = %v", e)
			}
		})
	}
}

func TestSkipInvalidateReproducesPaperBug(t *testing.T) {
	// The BUGGY VeriFS behavior the paper found after ~12K operations:
	// restore without cache invalidation leaves a stale positive dentry,
	// and mkdir reports EEXIST for a directory that does not exist.
	k, srv := mountOverFUSE(t, "verifs2", ServerOptions{SkipInvalidateOnRestore: true})
	if e := k.Ioctl("/mnt", vfs.IoctlCheckpoint, 1); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Mkdir("/mnt/testdir", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Ioctl("/mnt", vfs.IoctlRestore, 1); e != errno.OK {
		t.Fatal(e)
	}
	// The FS says the directory is gone...
	backing := srv.Backing()
	if _, e := backing.Lookup(backing.Root(), "testdir"); e != errno.ENOENT {
		t.Fatalf("backing still has testdir: %v", e)
	}
	// ...but the kernel claims it exists.
	if e := k.Mkdir("/mnt/testdir", 0755); e != errno.EEXIST {
		t.Errorf("mkdir = %v, want the spurious EEXIST", e)
	}
}

func TestCheckpointRestoreRoundTripOverIoctl(t *testing.T) {
	k, _ := mountOverFUSE(t, "verifs2", ServerOptions{})
	fd, _ := k.Open("/mnt/f", vfs.OCreate|vfs.OWrOnly, 0644)
	k.WriteFD(fd, []byte("v1"))
	k.Close(fd)
	if e := k.Ioctl("/mnt", vfs.IoctlCheckpoint, 99); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Truncate("/mnt/f", 0); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Unlink("/mnt/f"); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Ioctl("/mnt", vfs.IoctlRestore, 99); e != errno.OK {
		t.Fatal(e)
	}
	st, e := k.Stat("/mnt/f")
	if e != errno.OK || st.Size != 2 {
		t.Errorf("after restore = (%+v, %v)", st, e)
	}
	// Restoring a discarded key is ENOENT.
	if e := k.Ioctl("/mnt", vfs.IoctlRestore, 99); e != errno.ENOENT {
		t.Errorf("double restore = %v, want ENOENT", e)
	}
}

func TestServerReportsDeviceFiles(t *testing.T) {
	clk := simclock.New()
	srv := NewServer(verifs2.New(clk), ServerOptions{})
	devs := srv.OpenDeviceFiles()
	if len(devs) != 1 || devs[0] != DeviceFile {
		t.Errorf("OpenDeviceFiles = %v", devs)
	}
	if srv.ProcessName() != "fuse-server:verifs2" {
		t.Errorf("ProcessName = %q", srv.ProcessName())
	}
}

package fuse

import (
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// mountVeriFS2 mounts VeriFS2 over the FUSE transport at /mnt.
func mountVeriFS2(t *testing.T, opts ServerOptions) (*kernel.Kernel, *Server) {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	backing := verifs2.New(clk)
	srv := NewServer(backing, opts)
	spec := kernel.FilesystemSpec{
		Type:    "verifs2",
		Mounter: func() (vfs.FS, error) { return NewClient(srv, clk), nil },
	}
	if err := k.Mount("/mnt", spec, kernel.MountOptions{}); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return k, srv
}

func TestBasicOpsOverFUSE(t *testing.T) {
	k, _ := mountVeriFS2(t, ServerOptions{})
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
	data, e := k.ReadFD(fd, 100)
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
	k, _ := mountVeriFS2(t, ServerOptions{})
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

func TestSkipInvalidateReproducesPaperBug(t *testing.T) {
	// The BUGGY VeriFS behavior the paper found after ~12K operations:
	// restore without cache invalidation leaves a stale positive dentry,
	// and mkdir reports EEXIST for a directory that does not exist.
	k, srv := mountVeriFS2(t, ServerOptions{SkipInvalidateOnRestore: true})
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
	k, _ := mountVeriFS2(t, ServerOptions{})
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

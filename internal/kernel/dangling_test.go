package kernel_test

import (
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fuse"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// danglingKernel mounts kind at /mnt and makes /mnt/f1.sym, a symlink to
// f1, which does not exist: ext2 on a RAM disk, or VeriFS2 behind FUSE.
func danglingKernel(t *testing.T, kind string) *kernel.Kernel {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	var spec kernel.FilesystemSpec
	switch kind {
	case "ext2":
		dev := blockdev.NewRAM("ram0", 256*1024, clk)
		if err := extfs.Mkfs(dev, extfs.MkfsOptions{}); err != nil {
			t.Fatal(err)
		}
		spec = kernel.FilesystemSpec{Type: kind, Dev: dev,
			Mounter:   func() (vfs.FS, error) { return extfs.Mount(dev, clk) },
			Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() }}
	case "verifs2":
		client := fuse.NewClient(fuse.NewServer(verifs2.New(clk), fuse.ServerOptions{}), clk)
		spec = kernel.FilesystemSpec{Type: kind, Mounter: func() (vfs.FS, error) { return client, nil }}
	}
	if err := k.Mount("/mnt", spec, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	if e := k.Symlink("f1", "/mnt/f1.sym"); e != errno.OK {
		t.Fatal(e)
	}
	return k
}

// TestDanglingFinalSymlink audits every syscall that resolves its path
// with the final symlink followed, plus the two that must not follow it,
// against POSIX, with the last component a dangling symlink (/mnt/f1.sym
// -> f1, and no f1). One row per call site of resolve(path, true) in
// syscalls.go, and the syscall's verdict: what it returns, and whether
// f1 exists after it.
//
//   - symlink(2) and link(2)'s new path and mkdir(2) never follow a final
//     symlink: the name exists, so EEXIST, and nothing is created.
//   - open(2) with O_CREAT|O_EXCL fails with EEXIST "regardless of the
//     contents of the symbolic link"; without O_EXCL it follows, so
//     O_CREAT creates the target, and a plain open finds nothing.
//   - stat, access, chmod, chown, truncate, getdents, ioctl and the xattr
//     calls follow: the target does not exist, so ENOENT.
func TestDanglingFinalSymlink(t *testing.T) {
	rows := []struct {
		syscall string
		call    func(k *kernel.Kernel) errno.Errno
		want    errno.Errno
		creates bool // f1 exists afterwards
	}{
		{"symlink", func(k *kernel.Kernel) errno.Errno { return k.Symlink("f1", "/mnt/f1.sym") }, errno.EEXIST, false},
		{"open O_CREAT|O_EXCL", func(k *kernel.Kernel) errno.Errno { return openClose(k, kernel.OExclCreate|vfs.OWrOnly) }, errno.EEXIST, false},
		{"open O_CREAT", func(k *kernel.Kernel) errno.Errno { return openClose(k, vfs.OCreate|vfs.OWrOnly) }, errno.OK, true},
		{"open", func(k *kernel.Kernel) errno.Errno { return openClose(k, vfs.ORdOnly) }, errno.ENOENT, false},
		{"mkdir", func(k *kernel.Kernel) errno.Errno { return k.Mkdir("/mnt/f1.sym", 0755) }, errno.EEXIST, false},
		{"link (new path)", func(k *kernel.Kernel) errno.Errno {
			if e := k.Mkdir("/mnt/d", 0755); e != errno.OK {
				return e
			}
			return k.Link("/mnt/d", "/mnt/f1.sym") // a directory: EPERM were the name free
		}, errno.EEXIST, false},
		{"stat", func(k *kernel.Kernel) errno.Errno { _, e := k.Stat("/mnt/f1.sym"); return e }, errno.ENOENT, false},
		{"access", func(k *kernel.Kernel) errno.Errno { return k.Access("/mnt/f1.sym") }, errno.ENOENT, false},
		{"chmod", func(k *kernel.Kernel) errno.Errno { return k.Chmod("/mnt/f1.sym", 0600) }, errno.ENOENT, false},
		{"chown", func(k *kernel.Kernel) errno.Errno { return k.Chown("/mnt/f1.sym", 1, 1) }, errno.ENOENT, false},
		{"truncate", func(k *kernel.Kernel) errno.Errno { return k.Truncate("/mnt/f1.sym", 0) }, errno.ENOENT, false},
		{"getdents", func(k *kernel.Kernel) errno.Errno { _, e := k.GetDents("/mnt/f1.sym", nil); return e }, errno.ENOENT, false},
		{"ioctl", func(k *kernel.Kernel) errno.Errno { return k.Ioctl("/mnt/f1.sym", vfs.IoctlCheckpoint, 1) }, errno.ENOENT, false},
		{"setxattr", func(k *kernel.Kernel) errno.Errno { return k.SetXattr("/mnt/f1.sym", "user.a", []byte("v")) }, errno.ENOENT, false},
		{"getxattr", func(k *kernel.Kernel) errno.Errno { _, e := k.GetXattr("/mnt/f1.sym", "user.a"); return e }, errno.ENOENT, false},
		{"listxattr", func(k *kernel.Kernel) errno.Errno { _, e := k.ListXattr("/mnt/f1.sym"); return e }, errno.ENOENT, false},
		{"removexattr", func(k *kernel.Kernel) errno.Errno { return k.RemoveXattr("/mnt/f1.sym", "user.a") }, errno.ENOENT, false},
	}
	for _, kind := range []string{"ext2", "verifs2"} {
		for _, row := range rows {
			k := danglingKernel(t, kind)
			if got := row.call(k); got != row.want {
				t.Errorf("%s: %s over a dangling link = %v, want %v", kind, row.syscall, got, row.want)
			}
			_, e := k.Lstat("/mnt/f1")
			if created := e == errno.OK; created != row.creates {
				t.Errorf("%s: after %s over a dangling link, f1 exists: %v, want %v", kind, row.syscall, created, row.creates)
			}
			if target, e := k.Readlink("/mnt/f1.sym"); e != errno.OK || target != "f1" {
				t.Errorf("%s: after %s, the link reads %q (%v), want f1", kind, row.syscall, target, e)
			}
		}
	}
}

// openClose opens the dangling link with flags and closes what it opened.
func openClose(k *kernel.Kernel, flags vfs.OpenFlag) errno.Errno {
	fd, e := k.Open("/mnt/f1.sym", flags, 0644)
	if e == errno.OK {
		e = k.Close(fd)
	}
	return e
}

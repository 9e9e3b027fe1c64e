package vfs

import (
	"mcfs/internal/errno"
)

// FS is the inode-level operation set every file system under test
// implements. All methods return an errno (never a Go error); errno.OK
// means success. Implementations need not be safe for concurrent use —
// the kernel serializes operations per mount, like the big VFS locks the
// paper's single-driver exploration relies on.
type FS interface {
	// Root returns the inode number of the file system root directory.
	Root() Ino

	// Lookup resolves name inside the parent directory.
	Lookup(parent Ino, name string) (Ino, errno.Errno)

	// Getattr returns the metadata of ino.
	Getattr(ino Ino) (Stat, errno.Errno)

	// Setattr updates the metadata fields set in attr.
	Setattr(ino Ino, attr SetAttr) errno.Errno

	// Create makes a regular file in parent and returns its inode.
	Create(parent Ino, name string, mode Mode, uid, gid uint32) (Ino, errno.Errno)

	// Mkdir makes a directory in parent and returns its inode.
	Mkdir(parent Ino, name string, mode Mode, uid, gid uint32) (Ino, errno.Errno)

	// Unlink removes the named regular file or symlink from parent.
	Unlink(parent Ino, name string) errno.Errno

	// Rmdir removes the named empty directory from parent.
	Rmdir(parent Ino, name string) errno.Errno

	// Read appends up to n bytes of ino's data starting at off to dst and
	// returns the extended slice, in the manner of strconv.AppendInt: a
	// caller that passes the same buffer back each time reads without
	// allocating. A hole reads as zeros, written explicitly, since dst's
	// spare capacity may hold anything. A read at or past EOF appends
	// nothing and returns errno.OK. On error the returned slice has dst's
	// length, though bytes in its spare capacity may have changed.
	Read(ino Ino, off int64, n int, dst []byte) ([]byte, errno.Errno)

	// Write stores data into ino at off, extending the file if needed,
	// and returns the number of bytes written. It neither keeps nor
	// changes data: once Write returns, the caller may reuse the buffer,
	// and share one among writes and file systems.
	Write(ino Ino, off int64, data []byte) (int, errno.Errno)

	// ReadDir appends the entries of directory ino, including "." and
	// "..", to dst and returns the extended slice, in the manner of Read:
	// a caller that passes the same buffer back each time lists without
	// allocating for the slice. Order is implementation-defined (the
	// checker sorts, per §3.4). On error the returned slice has dst's
	// length, though entries in its spare capacity may have changed.
	ReadDir(ino Ino, dst []DirEntry) ([]DirEntry, errno.Errno)

	// StatFS reports capacity and usage.
	StatFS() (StatFS, errno.Errno)

	// Sync flushes all dirty in-memory state to the backing device.
	// In-memory file systems treat it as a no-op.
	Sync() errno.Errno
}

// RenameFS is implemented by file systems that support rename(2).
// VeriFS1 deliberately does not (§5).
type RenameFS interface {
	Rename(oldParent Ino, oldName string, newParent Ino, newName string) errno.Errno
}

// LinkFS is implemented by file systems that support hard links.
type LinkFS interface {
	Link(ino Ino, newParent Ino, newName string) errno.Errno
}

// SymlinkFS is implemented by file systems that support symbolic links.
type SymlinkFS interface {
	Symlink(target string, parent Ino, name string, uid, gid uint32) (Ino, errno.Errno)
	Readlink(ino Ino) (string, errno.Errno)
}

// XattrFS is implemented by file systems that support extended
// attributes. VeriFS2 adds these over VeriFS1 (§5).
type XattrFS interface {
	SetXattr(ino Ino, name string, value []byte) errno.Errno
	GetXattr(ino Ino, name string) ([]byte, errno.Errno)
	ListXattr(ino Ino) ([]string, errno.Errno)
	RemoveXattr(ino Ino, name string) errno.Errno
}

// Checkpointer is the paper's proposed state checkpoint/restore API
// (§5): a file system that implements it can save its complete state —
// in-memory and persistent — under a 64-bit key and later restore or
// discard it. VeriFS exposes these through ioctl_CHECKPOINT,
// ioctl_RESTORE and ioctl_DISCARD; the kernel routes those ioctls here.
type Checkpointer interface {
	// CheckpointState atomically copies the file system's full state into
	// its snapshot pool under key. An existing snapshot under the same
	// key is replaced.
	CheckpointState(key uint64) errno.Errno

	// RestoreState atomically replaces the file system's full state with
	// the snapshot stored under key and discards that snapshot. It
	// returns ENOENT if no snapshot exists under key.
	RestoreState(key uint64) errno.Errno

	// DiscardState drops the snapshot stored under key without
	// restoring it: the explorer releases a checkpoint that succeeded
	// on some targets but failed on another. It returns ENOENT if no
	// snapshot exists under key.
	DiscardState(key uint64) errno.Errno
}

// Ioctl command numbers for the checkpoint/restore API.
const (
	IoctlCheckpoint uint32 = 0xC0F5_0001
	IoctlRestore    uint32 = 0xC0F5_0002
	IoctlDiscard    uint32 = 0xC0F5_0003
)

// TypeName returns a short name for an FS implementation used in logs
// and reports; file systems implement it via the Typer interface,
// falling back to "fs".
func TypeName(fs FS) string {
	if t, ok := fs.(Typer); ok {
		return t.FSType()
	}
	return "fs"
}

// Typer is implemented by file systems that report their type name
// ("ext2", "ext4", "xfs", "jffs2", "verifs1", "verifs2", ...).
type Typer interface {
	FSType() string
}

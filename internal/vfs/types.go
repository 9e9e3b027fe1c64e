// Package vfs defines the virtual-file-system contract between the
// simulated kernel (internal/kernel) and the file system implementations
// under test (internal/fs/...).
//
// The interface is deliberately shaped like the Linux VFS / FUSE lowlevel
// API: operations are expressed against inode numbers, with a Lookup
// operation mapping (parent inode, name) to a child inode. Path walking,
// the dentry cache, and file descriptors live in the kernel layer — which
// is exactly what makes the paper's cache-incoherency challenge (§3.2)
// reproducible: the kernel can hold lookups in its cache that a restored
// file system state no longer agrees with.
package vfs

import (
	"time"

	"mcfs/internal/errno"
)

// Ino is an inode number. Inode 0 is never valid.
type Ino uint64

// Mode holds a file's type and permission bits, Unix-style.
type Mode uint32

// File type bits (the S_IFMT family) and the permission mask.
const (
	ModeMask Mode = 0xF000
	ModeReg  Mode = 0x8000
	ModeDir  Mode = 0x4000
	ModeLink Mode = 0xA000
	PermMask Mode = 0x0FFF
)

// IsDir reports whether m describes a directory.
func (m Mode) IsDir() bool { return m&ModeMask == ModeDir }

// IsRegular reports whether m describes a regular file.
func (m Mode) IsRegular() bool { return m&ModeMask == ModeReg }

// IsSymlink reports whether m describes a symbolic link.
func (m Mode) IsSymlink() bool { return m&ModeMask == ModeLink }

// Perm returns only the permission bits of m.
func (m Mode) Perm() Mode { return m & PermMask }

// Stat is the metadata record returned by Getattr, the analogue of
// struct stat. Timestamps are virtual-clock durations since boot.
type Stat struct {
	Ino    Ino
	Mode   Mode
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   int64
	Blocks int64 // 512-byte units, like st_blocks
	Atime  time.Duration
	Mtime  time.Duration
	Ctime  time.Duration
}

// DirEntry is one directory entry as returned by ReadDir (getdents).
type DirEntry struct {
	Name string
	Ino  Ino
	Mode Mode // type bits only; permission bits may be zero
}

// StatFS is the file system usage record returned by StatFS (statfs).
type StatFS struct {
	BlockSize   int64
	TotalBlocks int64
	FreeBlocks  int64
	TotalInodes int64
	FreeInodes  int64
}

// FreeBytes returns the usable free space in bytes.
func (s StatFS) FreeBytes() int64 { return s.FreeBlocks * s.BlockSize }

// TotalBytes returns the total capacity in bytes.
func (s StatFS) TotalBytes() int64 { return s.TotalBlocks * s.BlockSize }

// OpenFlag mirrors the open(2) flag subset the checker drives.
type OpenFlag uint32

// Open flags. RDONLY is zero, as on Linux.
const (
	ORdOnly OpenFlag = 0x0
	OWrOnly OpenFlag = 0x1
	ORdWr   OpenFlag = 0x2
	OCreate OpenFlag = 0x40
	OExcl   OpenFlag = 0x80
	OTrunc  OpenFlag = 0x200
	OAppend OpenFlag = 0x400
)

// AccessMode extracts the access-mode bits (O_ACCMODE).
func (f OpenFlag) AccessMode() OpenFlag { return f & 0x3 }

// Readable reports whether the flags permit reading.
func (f OpenFlag) Readable() bool {
	m := f.AccessMode()
	return m == ORdOnly || m == ORdWr
}

// Writable reports whether the flags permit writing.
func (f OpenFlag) Writable() bool {
	m := f.AccessMode()
	return m == OWrOnly || m == ORdWr
}

// SetAttr describes a metadata update for Setattr: Valid names the
// fields to set, and the others are left unchanged. It corresponds to
// the iattr structure in Linux, whose ia_valid mask Valid is. It holds
// values, not pointers, so passing one through an interface method
// allocates nothing.
type SetAttr struct {
	Valid AttrMask
	Mode  Mode
	UID   uint32
	GID   uint32
	// Size, when set, truncates or extends the file, zero-filling any
	// newly exposed bytes.
	Size  int64
	Atime time.Duration
	Mtime time.Duration
}

// AttrMask is a set of SetAttr fields, like Linux's ATTR_* bits.
type AttrMask uint8

// The SetAttr fields an AttrMask names.
const (
	AttrMode AttrMask = 1 << iota
	AttrUID
	AttrGID
	AttrSize
	AttrAtime
	AttrMtime
)

// Has reports whether a sets every field in m.
func (a SetAttr) Has(m AttrMask) bool { return a.Valid&m == m }

// NameMax is the longest file name the simulated kernel accepts, matching
// Linux's NAME_MAX.
const NameMax = 255

// ValidName reports the errno for using name as a directory entry: names
// must be non-empty, contain no '/' or NUL, and fit in NameMax bytes.
// "." and ".." are rejected with EEXIST/EINVAL by the operations
// themselves, not here.
func ValidName(name string) errno.Errno {
	if name == "" {
		return errno.ENOENT
	}
	if len(name) > NameMax {
		return errno.ENAMETOOLONG
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return errno.EINVAL
		}
	}
	return errno.OK
}

// Package extfs implements an ext2/ext4-like block file system on a
// simulated block device.
//
// The paper model-checks Ext2 and Ext4 on RAM block devices; this package
// is their stand-in. The on-disk format is a simplified ext layout: a
// superblock, a block bitmap, an inode bitmap, a fixed inode table,
// optionally a physical journal region (journal present = "ext4", absent =
// "ext2"), and data blocks. Files use 12 direct block pointers plus one
// single-indirect block. Directories are packed entry lists in data
// blocks, so directory sizes are always a multiple of the block size and
// never shrink — the exact behavior that forces the checker's
// directory-size workaround (§3.4). mkfs creates a lost+found directory in
// the root, the other §3.4 special case.
//
// Metadata (superblock, bitmaps, inodes) is cached in memory at mount and
// written back on Sync/Unmount, while file data is written through. That
// split is what makes the paper's cache-incoherency failure (§3.2)
// reproducible: restoring the device image underneath a mounted extfs
// leaves the cached metadata describing a different world, and the next
// flush writes that stale metadata over the restored image. Fsck detects
// the resulting corruption (directory entries pointing at free or missing
// inodes).
package extfs

import (
	"encoding/binary"
	"fmt"
	"time"

	"mcfs/internal/vfs"
)

// On-disk geometry constants.
const (
	// BlockSize is the file system block size in bytes.
	BlockSize = 1024
	// InodeSize is the on-disk inode record size.
	InodeSize = 128
	// InodesPerBlock is derived from the two above.
	InodesPerBlock = BlockSize / InodeSize
	// NumDirect is the number of direct block pointers per inode.
	NumDirect = 12
	// PtrsPerBlock is the number of block pointers in an indirect block.
	PtrsPerBlock = BlockSize / 4
	// MaxFileBlocks bounds file size: direct plus one indirect block.
	MaxFileBlocks = NumDirect + PtrsPerBlock

	// Magic identifies an extfs superblock.
	Magic = 0x4D434558 // "MCEX"

	// RootIno is the root directory inode, 2 as in real ext.
	RootIno = 2
	// FirstFreeIno is the first inode mkfs hands out after the reserved
	// ones (1 = bad blocks, 2 = root), mirroring ext's reserved range.
	FirstFreeIno = 3

	// DefaultInodeCount is the inode-table capacity mkfs creates.
	DefaultInodeCount = 64
	// DefaultJournalBlocks is the journal region size for ext4 mode.
	DefaultJournalBlocks = 32

	// superblock byte offsets
	sbMagicOff    = 0
	sbBlocksOff   = 4
	sbInodesOff   = 8
	sbJStartOff   = 12
	sbJLenOff     = 16
	sbFlagsOff    = 20
	sbFreeBlkOff  = 24
	sbFreeInoOff  = 28
	sbMountCntOff = 32

	sbFlagJournal = 1 << 0
	sbFlagDirty   = 1 << 1
)

// superblock is the in-memory form of block 0.
type superblock struct {
	blocksTotal uint32
	inodesTotal uint32
	// journalStart/journalLen delimit the journal region; len 0 = ext2.
	journalStart uint32
	journalLen   uint32
	flags        uint32
	freeBlocks   uint32
	freeInodes   uint32
	mountCount   uint32
}

func (sb *superblock) hasJournal() bool { return sb.journalLen > 0 }

// encode writes the superblock into block image b, zeroing the rest of it,
// and returns b.
func (sb *superblock) encode(b []byte) []byte {
	clear(b)
	le := binary.LittleEndian
	le.PutUint32(b[sbMagicOff:], Magic)
	le.PutUint32(b[sbBlocksOff:], sb.blocksTotal)
	le.PutUint32(b[sbInodesOff:], sb.inodesTotal)
	le.PutUint32(b[sbJStartOff:], sb.journalStart)
	le.PutUint32(b[sbJLenOff:], sb.journalLen)
	le.PutUint32(b[sbFlagsOff:], sb.flags)
	le.PutUint32(b[sbFreeBlkOff:], sb.freeBlocks)
	le.PutUint32(b[sbFreeInoOff:], sb.freeInodes)
	le.PutUint32(b[sbMountCntOff:], sb.mountCount)
	return b
}

func decodeSuperblock(b []byte) (superblock, error) {
	le := binary.LittleEndian
	if le.Uint32(b[sbMagicOff:]) != Magic {
		return superblock{}, fmt.Errorf("extfs: bad magic %#x", le.Uint32(b[sbMagicOff:]))
	}
	return superblock{
		blocksTotal:  le.Uint32(b[sbBlocksOff:]),
		inodesTotal:  le.Uint32(b[sbInodesOff:]),
		journalStart: le.Uint32(b[sbJStartOff:]),
		journalLen:   le.Uint32(b[sbJLenOff:]),
		flags:        le.Uint32(b[sbFlagsOff:]),
		freeBlocks:   le.Uint32(b[sbFreeBlkOff:]),
		freeInodes:   le.Uint32(b[sbFreeInoOff:]),
		mountCount:   le.Uint32(b[sbMountCntOff:]),
	}, nil
}

// layout computes the block numbers of each metadata region for a volume.
type layout struct {
	blockBitmap uint32 // always 1
	inodeBitmap uint32 // always 2
	inodeTable  uint32 // first inode-table block
	inodeBlocks uint32
	journal     uint32 // first journal block (0 when absent)
	journalLen  uint32
	firstData   uint32
	blocksTotal uint32
}

func computeLayout(blocksTotal, inodeCount, journalBlocks uint32) layout {
	inodeBlocks := (inodeCount + InodesPerBlock - 1) / InodesPerBlock
	l := layout{
		blockBitmap: 1,
		inodeBitmap: 2,
		inodeTable:  3,
		inodeBlocks: inodeBlocks,
		blocksTotal: blocksTotal,
	}
	next := l.inodeTable + inodeBlocks
	if journalBlocks > 0 {
		l.journal = next
		l.journalLen = journalBlocks
		next += journalBlocks
	}
	l.firstData = next
	return l
}

// onDiskInode is the 128-byte inode record.
type onDiskInode struct {
	mode   uint32
	nlink  uint32
	uid    uint32
	gid    uint32
	size   uint64
	atime  int64
	mtime  int64
	ctime  int64
	direct [NumDirect]uint32
	indir  uint32
}

const (
	inoModeOff   = 0
	inoNlinkOff  = 4
	inoUIDOff    = 8
	inoGIDOff    = 12
	inoSizeOff   = 16
	inoAtimeOff  = 24
	inoMtimeOff  = 32
	inoCtimeOff  = 40
	inoDirectOff = 48
	inoIndirOff  = inoDirectOff + 4*NumDirect // 96
)

func (n *onDiskInode) encode(dst []byte) {
	le := binary.LittleEndian
	le.PutUint32(dst[inoModeOff:], n.mode)
	le.PutUint32(dst[inoNlinkOff:], n.nlink)
	le.PutUint32(dst[inoUIDOff:], n.uid)
	le.PutUint32(dst[inoGIDOff:], n.gid)
	le.PutUint64(dst[inoSizeOff:], n.size)
	le.PutUint64(dst[inoAtimeOff:], uint64(n.atime))
	le.PutUint64(dst[inoMtimeOff:], uint64(n.mtime))
	le.PutUint64(dst[inoCtimeOff:], uint64(n.ctime))
	for i := 0; i < NumDirect; i++ {
		le.PutUint32(dst[inoDirectOff+4*i:], n.direct[i])
	}
	le.PutUint32(dst[inoIndirOff:], n.indir)
}

func decodeInode(src []byte) onDiskInode {
	le := binary.LittleEndian
	var n onDiskInode
	n.mode = le.Uint32(src[inoModeOff:])
	n.nlink = le.Uint32(src[inoNlinkOff:])
	n.uid = le.Uint32(src[inoUIDOff:])
	n.gid = le.Uint32(src[inoGIDOff:])
	n.size = le.Uint64(src[inoSizeOff:])
	n.atime = int64(le.Uint64(src[inoAtimeOff:]))
	n.mtime = int64(le.Uint64(src[inoMtimeOff:]))
	n.ctime = int64(le.Uint64(src[inoCtimeOff:]))
	for i := 0; i < NumDirect; i++ {
		n.direct[i] = le.Uint32(src[inoDirectOff+4*i:])
	}
	n.indir = le.Uint32(src[inoIndirOff:])
	return n
}

func (n *onDiskInode) vfsMode() vfs.Mode { return vfs.Mode(n.mode) }

func (n *onDiskInode) stat(ino vfs.Ino) vfs.Stat {
	blocks := int64(0)
	for _, d := range n.direct {
		if d != 0 {
			blocks++
		}
	}
	if n.indir != 0 {
		blocks++
	}
	return vfs.Stat{
		Ino:    ino,
		Mode:   vfs.Mode(n.mode),
		Nlink:  n.nlink,
		UID:    n.uid,
		GID:    n.gid,
		Size:   int64(n.size),
		Blocks: blocks * (BlockSize / 512),
		Atime:  time.Duration(n.atime),
		Mtime:  time.Duration(n.mtime),
		Ctime:  time.Duration(n.ctime),
	}
}

// bitmap helpers

func bitmapGet(bm []byte, i uint32) bool { return bm[i/8]&(1<<(i%8)) != 0 }
func bitmapSet(bm []byte, i uint32)      { bm[i/8] |= 1 << (i % 8) }
func bitmapClear(bm []byte, i uint32)    { bm[i/8] &^= 1 << (i % 8) }

// directory entry wire format: ino(4) nameLen(2) name(nameLen), packed
// back to back; a zero ino terminates the used region of a block.
const direntHeader = 6

func encodeDirent(dst []byte, ino uint32, name string) int {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], ino)
	le.PutUint16(dst[4:], uint16(len(name)))
	copy(dst[direntHeader:], name)
	return direntHeader + len(name)
}

func direntLen(name string) int { return direntHeader + len(name) }

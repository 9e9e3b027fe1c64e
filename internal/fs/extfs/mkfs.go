package extfs

import (
	"fmt"

	"mcfs/internal/blockdev"
)

// MkfsOptions configures volume creation.
type MkfsOptions struct {
	// Journal enables a DefaultJournalBlocks journal region ("ext4" mode).
	Journal bool
	// NoLostFound suppresses the lost+found directory (for tests that
	// need namespace-identical volumes).
	NoLostFound bool
}

// Mkfs formats the device with an empty extfs volume: superblock,
// bitmaps, a DefaultInodeCount inode table, optional journal, a root
// directory, and — like real e2fsprogs — a lost+found directory inside
// the root (§3.4's special-folder false positive comes from exactly
// this).
func Mkfs(dev blockdev.Device, opts MkfsOptions) error {
	blocksTotal := uint32(dev.Size() / BlockSize)
	if blocksTotal < 16 {
		return fmt.Errorf("extfs: device too small: %d blocks", blocksTotal)
	}
	inodeCount := uint32(DefaultInodeCount)
	journalBlocks := uint32(0)
	if opts.Journal {
		journalBlocks = DefaultJournalBlocks
	}
	l := computeLayout(blocksTotal, inodeCount, journalBlocks)
	if l.firstData+4 > blocksTotal {
		return fmt.Errorf("extfs: metadata (%d blocks) leaves no data space in %d blocks", l.firstData, blocksTotal)
	}

	// Zero all metadata regions.
	zero := make([]byte, BlockSize)
	for blk := uint32(0); blk < l.firstData; blk++ {
		if err := dev.WriteAt(zero, int64(blk)*BlockSize); err != nil {
			return err
		}
	}

	// Block bitmap: metadata blocks are in use.
	bbm := make([]byte, BlockSize)
	for blk := uint32(0); blk < l.firstData; blk++ {
		bitmapSet(bbm, blk)
	}
	// Mark blocks beyond the device as used so the allocator never
	// returns them.
	for blk := blocksTotal; blk < BlockSize*8; blk++ {
		bitmapSet(bbm, blk)
	}

	// Inode bitmap: inode numbers are 1-based; bit 0 unused, inos 1 and 2
	// reserved/used.
	ibm := make([]byte, BlockSize)
	bitmapSet(ibm, 0) // no inode 0
	bitmapSet(ibm, 1) // reserved (bad blocks inode in real ext)
	bitmapSet(ibm, RootIno)
	for ino := inodeCount + 1; ino < BlockSize*8; ino++ {
		bitmapSet(ibm, ino)
	}

	freeBlocks := blocksTotal - l.firstData
	freeInodes := inodeCount - 2 // ino 1 and root

	// Root directory: one data block holding ".", "..", and (normally)
	// "lost+found" — exactly like a fresh e2fsprogs volume, where "." and
	// ".." are real on-disk entries.
	rootBlk := l.firstData
	bitmapSet(bbm, rootBlk)
	freeBlocks--
	root := onDiskInode{
		mode:  0x4000 | 0755,
		nlink: 2, // "." plus the parent link from itself (root is its own parent)
	}
	root.size = BlockSize
	root.direct[0] = rootBlk
	rb := make([]byte, BlockSize)
	pos := encodeDirent(rb, RootIno, ".")
	pos += encodeDirent(rb[pos:], RootIno, "..")

	// lost+found: its own inode and data block, linked from the root.
	var lfIno uint32
	if !opts.NoLostFound {
		lfIno = FirstFreeIno
		bitmapSet(ibm, lfIno)
		freeInodes--
		lfBlk := rootBlk + 1
		bitmapSet(bbm, lfBlk)
		freeBlocks--
		lf := onDiskInode{
			mode:  0x4000 | 0700,
			nlink: 2,
		}
		lf.size = BlockSize
		lf.direct[0] = lfBlk
		lfb := make([]byte, BlockSize)
		lfPos := encodeDirent(lfb, lfIno, ".")
		encodeDirent(lfb[lfPos:], RootIno, "..")
		if err := dev.WriteAt(lfb, int64(lfBlk)*BlockSize); err != nil {
			return err
		}
		if err := writeRawInode(dev, l, lfIno, &lf); err != nil {
			return err
		}
		encodeDirent(rb[pos:], lfIno, "lost+found")
		root.nlink++ // lost+found's ".." references the root
	}
	if err := dev.WriteAt(rb, int64(rootBlk)*BlockSize); err != nil {
		return err
	}

	if err := writeRawInode(dev, l, RootIno, &root); err != nil {
		return err
	}
	if err := dev.WriteAt(bbm, int64(l.blockBitmap)*BlockSize); err != nil {
		return err
	}
	if err := dev.WriteAt(ibm, int64(l.inodeBitmap)*BlockSize); err != nil {
		return err
	}

	sb := superblock{
		blocksTotal:  blocksTotal,
		inodesTotal:  inodeCount,
		journalStart: l.journal,
		journalLen:   l.journalLen,
		freeBlocks:   freeBlocks,
		freeInodes:   freeInodes,
	}
	if opts.Journal {
		sb.flags |= sbFlagJournal
	}
	return dev.WriteAt(sb.encode(make([]byte, BlockSize)), 0)
}

// writeRawInode writes one inode record directly to the inode table; used
// only by mkfs, before any cache exists.
func writeRawInode(dev blockdev.Device, l layout, ino uint32, n *onDiskInode) error {
	blk := l.inodeTable + (ino-1)/InodesPerBlock
	off := int64(blk)*BlockSize + int64((ino-1)%InodesPerBlock)*InodeSize
	buf := make([]byte, InodeSize)
	n.encode(buf)
	return dev.WriteAt(buf, off)
}

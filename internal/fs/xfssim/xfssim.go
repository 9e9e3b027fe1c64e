// Package xfssim implements an XFS-like extent-based file system on a
// simulated block device.
//
// It is the paper's XFS stand-in, deliberately different from extfs in
// the ways the paper's false-positive analysis (§3.4) depends on:
//
//   - directory sizes are reported from the bytes of active entries, not
//     rounded to block multiples, and shrink when entries are removed;
//   - there is no lost+found directory;
//   - a mandatory log region plus per-AG reservations make the usable
//     capacity differ from an ext volume on the same size device (the
//     free-space-equalization case);
//   - the minimum volume size is 16 MiB (the paper had to use 16 MB RAM
//     disks for XFS where ext needed only 256 KB) — which is what blows
//     up concrete-state sizes and drives the Fig. 2 swap behavior.
//
// Files map data through up to eight extents (start, count); the
// allocator extends the tail extent when it can, so sequential writes
// stay contiguous, XFS-style. Metadata (superblock, free-space bitmap,
// inodes) is cached in memory at mount and written back on Sync/Unmount,
// like extfs, so the same cache-incoherency hazard applies.
package xfssim

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// Geometry constants.
const (
	// BlockSize is the file system block size.
	BlockSize = 4096
	// MinVolumeSize is the smallest device xfssim will format.
	MinVolumeSize = 16 << 20
	// InodeSize is the on-disk inode record size.
	InodeSize = 256
	// InodesPerBlock derives from the above.
	InodesPerBlock = BlockSize / InodeSize
	// NumExtents is the per-inode extent-map capacity.
	NumExtents = 8
	// LogBlocks is the size of the (mandatory) log region.
	LogBlocks = 64
	// Magic identifies an xfssim superblock.
	Magic = 0x58465353 // "XFSS"
	// RootIno is the root directory inode.
	RootIno = 1
	// DefaultInodeCount is the inode capacity mkfs creates.
	DefaultInodeCount = 256
)

type extent struct {
	start uint32
	count uint32
}

type onDiskInode struct {
	mode    uint32
	nlink   uint32
	uid     uint32
	gid     uint32
	size    uint64
	atime   int64
	mtime   int64
	ctime   int64
	extents [NumExtents]extent
}

func (n *onDiskInode) encode(dst []byte) {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], n.mode)
	le.PutUint32(dst[4:], n.nlink)
	le.PutUint32(dst[8:], n.uid)
	le.PutUint32(dst[12:], n.gid)
	le.PutUint64(dst[16:], n.size)
	le.PutUint64(dst[24:], uint64(n.atime))
	le.PutUint64(dst[32:], uint64(n.mtime))
	le.PutUint64(dst[40:], uint64(n.ctime))
	for i, e := range n.extents {
		le.PutUint32(dst[48+8*i:], e.start)
		le.PutUint32(dst[52+8*i:], e.count)
	}
}

func decodeInode(src []byte) onDiskInode {
	le := binary.LittleEndian
	var n onDiskInode
	n.mode = le.Uint32(src[0:])
	n.nlink = le.Uint32(src[4:])
	n.uid = le.Uint32(src[8:])
	n.gid = le.Uint32(src[12:])
	n.size = le.Uint64(src[16:])
	n.atime = int64(le.Uint64(src[24:]))
	n.mtime = int64(le.Uint64(src[32:]))
	n.ctime = int64(le.Uint64(src[40:]))
	for i := range n.extents {
		n.extents[i].start = le.Uint32(src[48+8*i:])
		n.extents[i].count = le.Uint32(src[52+8*i:])
	}
	return n
}

func (n *onDiskInode) blocks() int64 {
	total := int64(0)
	for _, e := range n.extents {
		total += int64(e.count)
	}
	return total
}

// nthBlock maps file block index idx through the extent list; 0 = hole.
func (n *onDiskInode) nthBlock(idx int64) uint32 {
	for _, e := range n.extents {
		if e.count == 0 {
			continue
		}
		if idx < int64(e.count) {
			return e.start + uint32(idx)
		}
		idx -= int64(e.count)
	}
	return 0
}

type superblock struct {
	blocksTotal uint32
	inodesTotal uint32
	freeBlocks  uint32
	freeInodes  uint32
	logSeq      uint32
}

const (
	sbSize     = 64
	inodeTable = 1 // first inode-table block
	direntHdr  = 6 // ino(4) + nameLen(2)
)

func (sb *superblock) encode() []byte {
	b := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], Magic)
	le.PutUint32(b[4:], sb.blocksTotal)
	le.PutUint32(b[8:], sb.inodesTotal)
	le.PutUint32(b[12:], sb.freeBlocks)
	le.PutUint32(b[16:], sb.freeInodes)
	le.PutUint32(b[20:], sb.logSeq)
	return b
}

func decodeSuperblock(b []byte) (*superblock, error) {
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != Magic {
		return nil, fmt.Errorf("xfssim: bad magic %#x", le.Uint32(b[0:]))
	}
	return &superblock{
		blocksTotal: le.Uint32(b[4:]),
		inodesTotal: le.Uint32(b[8:]),
		freeBlocks:  le.Uint32(b[12:]),
		freeInodes:  le.Uint32(b[16:]),
		logSeq:      le.Uint32(b[20:]),
	}, nil
}

type layout struct {
	inodeBlocks uint32
	bitmap      uint32 // free-space bitmap block
	bitmapLen   uint32
	log         uint32
	firstData   uint32
}

// computeLayout places the metadata of a volume of blocksTotal blocks
// holding inodeCount inodes. It fails unless the root inode, the metadata
// and at least one data block fit.
func computeLayout(blocksTotal, inodeCount uint32) (layout, error) {
	// In 64 bits: a superblock read from the device may claim any count.
	inodeBlocks := (uint64(inodeCount) + InodesPerBlock - 1) / InodesPerBlock
	bitmapLen := (uint64(blocksTotal)/8 + BlockSize - 1) / BlockSize
	if inodeCount < RootIno || inodeTable+inodeBlocks+bitmapLen+LogBlocks >= uint64(blocksTotal) {
		return layout{}, fmt.Errorf("xfssim: %d inodes and their metadata do not fit in %d blocks", inodeCount, blocksTotal)
	}
	var l layout
	l.inodeBlocks = uint32(inodeBlocks)
	l.bitmap = inodeTable + l.inodeBlocks
	l.bitmapLen = uint32(bitmapLen)
	l.log = l.bitmap + l.bitmapLen
	l.firstData = l.log + LogBlocks
	return l, nil
}

func bitmapGet(bm []byte, i uint32) bool { return bm[i/8]&(1<<(i%8)) != 0 }
func bitmapSet(bm []byte, i uint32)      { bm[i/8] |= 1 << (i % 8) }
func bitmapClear(bm []byte, i uint32)    { bm[i/8] &^= 1 << (i % 8) }

// Mkfs formats the device with DefaultInodeCount inodes. Devices smaller
// than MinVolumeSize are rejected, matching XFS's larger minimum
// file-system size (§6).
func Mkfs(dev blockdev.Device) error {
	if dev.Size() < MinVolumeSize {
		return fmt.Errorf("xfssim: device %d bytes below minimum %d", dev.Size(), MinVolumeSize)
	}
	blocksTotal := uint32(dev.Size() / BlockSize)
	inodeCount := uint32(DefaultInodeCount)
	l, err := computeLayout(blocksTotal, inodeCount)
	if err != nil {
		return err
	}

	zero := make([]byte, BlockSize)
	for blk := uint32(0); blk < l.firstData; blk++ {
		if err := dev.WriteAt(zero, int64(blk)*BlockSize); err != nil {
			return err
		}
	}
	bm := make([]byte, int(l.bitmapLen)*BlockSize)
	for blk := uint32(0); blk < l.firstData; blk++ {
		bitmapSet(bm, blk)
	}
	for blk := blocksTotal; blk < uint32(len(bm)*8); blk++ {
		bitmapSet(bm, blk)
	}
	// Root directory: one data block with "." and "..".
	rootBlk := l.firstData
	bitmapSet(bm, rootBlk)
	rb := make([]byte, BlockSize)
	pos := putDirent(rb, RootIno, ".")
	putDirent(rb[pos:], RootIno, "..")
	if err := dev.WriteAt(rb, int64(rootBlk)*BlockSize); err != nil {
		return err
	}
	root := onDiskInode{mode: uint32(vfs.ModeDir | 0755), nlink: 2}
	root.size = uint64(pos + direntLen(".."))
	root.extents[0] = extent{start: rootBlk, count: 1}
	rbuf := make([]byte, InodeSize)
	root.encode(rbuf)
	if err := dev.WriteAt(rbuf, int64(inodeTable)*BlockSize); err != nil {
		return err
	}
	for i := uint32(0); i < l.bitmapLen; i++ {
		if err := dev.WriteAt(bm[i*BlockSize:(i+1)*BlockSize], int64(l.bitmap+i)*BlockSize); err != nil {
			return err
		}
	}
	sb := superblock{
		blocksTotal: blocksTotal,
		inodesTotal: inodeCount,
		freeBlocks:  blocksTotal - l.firstData - 1,
		freeInodes:  inodeCount - 1,
	}
	return dev.WriteAt(sb.encode(), 0)
}

func putDirent(dst []byte, ino uint32, name string) int {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], ino)
	le.PutUint16(dst[4:], uint16(len(name)))
	copy(dst[direntHdr:], name)
	return direntHdr + len(name)
}

func direntLen(name string) int { return direntHdr + len(name) }

// FS is a mounted xfssim volume.
type FS struct {
	dev    blockdev.Device
	clock  *simclock.Clock
	sb     *superblock
	layout layout

	bitmap []byte
	dirty  bool // any metadata dirty

	inodeCache map[uint32]*cachedInode
	unmounted  bool

	scratch [BlockSize]byte // Read's block buffer
}

type cachedInode struct {
	onDiskInode
	dirty bool
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.RenameFS = (*FS)(nil)
var _ vfs.LinkFS = (*FS)(nil)
var _ vfs.SymlinkFS = (*FS)(nil)
var _ vfs.Typer = (*FS)(nil)

// Mount reads the volume and returns a live FS. XFS always scans its log
// at mount; the simulated log scan charges proportional I/O time.
func Mount(dev blockdev.Device, clock *simclock.Clock) (*FS, error) {
	buf := make([]byte, BlockSize)
	if err := dev.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	if have := dev.Size() / BlockSize; int64(sb.blocksTotal) > have {
		return nil, fmt.Errorf("xfssim: superblock claims %d blocks, the device holds %d", sb.blocksTotal, have)
	}
	l, err := computeLayout(sb.blocksTotal, sb.inodesTotal)
	if err != nil {
		return nil, err
	}
	f := &FS{
		dev:        dev,
		clock:      clock,
		sb:         sb,
		layout:     l,
		inodeCache: make(map[uint32]*cachedInode),
	}
	// Log recovery scan: read the whole log region.
	logBuf := make([]byte, BlockSize)
	for i := uint32(0); i < LogBlocks; i++ {
		if err := dev.ReadAt(logBuf, int64(l.log+i)*BlockSize); err != nil {
			return nil, err
		}
	}
	f.bitmap = make([]byte, int(l.bitmapLen)*BlockSize)
	for i := uint32(0); i < l.bitmapLen; i++ {
		if err := dev.ReadAt(f.bitmap[i*BlockSize:(i+1)*BlockSize], int64(l.bitmap+i)*BlockSize); err != nil {
			return nil, err
		}
	}
	if clock != nil {
		// Log recovery scan and AG indexing: XFS mounts are far heavier
		// than ext mounts, which is what makes per-operation remounting
		// so costly for the Ext4-vs-XFS configuration (§6).
		clock.Advance(6500 * time.Microsecond)
	}
	return f, nil
}

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "xfs" }

// Unmount flushes dirty state; the FS must not be used afterwards.
func (f *FS) Unmount() error {
	if f.unmounted {
		return fmt.Errorf("xfssim: double unmount")
	}
	if e := f.Sync(); e != errno.OK {
		return e
	}
	if f.clock != nil {
		f.clock.Advance(500 * time.Microsecond) // log quiesce + teardown
	}
	f.unmounted = true
	return nil
}

// Sync implements vfs.FS: write dirty inodes, the bitmap, the superblock,
// and bump the log sequence (standing in for a log commit).
func (f *FS) Sync() errno.Errno {
	wroteAny := false
	byBlock := make(map[uint32][]uint32)
	for ino, ci := range f.inodeCache {
		if ci.dirty {
			byBlock[inodeTable+(ino-1)/InodesPerBlock] = append(byBlock[inodeTable+(ino-1)/InodesPerBlock], ino)
		}
	}
	// Write inode-table blocks in ascending block order: byBlock is a
	// map, and the crash-consistency explorer enumerates crash points per
	// device write, so the write order must not vary between identical
	// runs.
	var dirtyBlocks []uint32
	for blk := range byBlock {
		dirtyBlocks = append(dirtyBlocks, blk)
	}
	sort.Slice(dirtyBlocks, func(i, j int) bool { return dirtyBlocks[i] < dirtyBlocks[j] })
	for _, blk := range dirtyBlocks {
		buf := make([]byte, BlockSize)
		if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
			return errno.EIO
		}
		for _, ino := range byBlock[blk] {
			ci := f.inodeCache[ino]
			off := ((ino - 1) % InodesPerBlock) * InodeSize
			ci.encode(buf[off : off+InodeSize])
			ci.dirty = false
		}
		if err := f.dev.WriteAt(buf, int64(blk)*BlockSize); err != nil {
			return errno.EIO
		}
		wroteAny = true
	}
	if f.dirty {
		for i := uint32(0); i < f.layout.bitmapLen; i++ {
			if err := f.dev.WriteAt(f.bitmap[i*BlockSize:(i+1)*BlockSize], int64(f.layout.bitmap+i)*BlockSize); err != nil {
				return errno.EIO
			}
		}
		f.sb.logSeq++
		if err := f.dev.WriteAt(f.sb.encode(), 0); err != nil {
			return errno.EIO
		}
		// Log commit record.
		rec := make([]byte, BlockSize)
		binary.LittleEndian.PutUint32(rec, f.sb.logSeq)
		if err := f.dev.WriteAt(rec, int64(f.layout.log)*BlockSize); err != nil {
			return errno.EIO
		}
		f.dirty = false
		wroteAny = true
	}
	if wroteAny {
		if err := f.dev.Sync(); err != nil {
			return errno.EIO
		}
	}
	return errno.OK
}

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

func (f *FS) getInode(ino uint32) *cachedInode {
	if ino == 0 || ino > f.sb.inodesTotal {
		return nil
	}
	if ci, ok := f.inodeCache[ino]; ok {
		if ci.nlink == 0 && ci.mode == 0 {
			return nil
		}
		return ci
	}
	blk := inodeTable + (ino-1)/InodesPerBlock
	buf := make([]byte, BlockSize)
	if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
		return nil
	}
	off := ((ino - 1) % InodesPerBlock) * InodeSize
	nd := decodeInode(buf[off : off+InodeSize])
	if nd.mode == 0 && nd.nlink == 0 || !f.inDataArea(&nd) {
		return nil
	}
	ci := &cachedInode{onDiskInode: nd}
	f.inodeCache[ino] = ci
	return ci
}

// inDataArea reports whether every extent of n lies between the first
// data block and the end of the volume. An inode read from the device
// that maps anything else is corrupt, and reads as absent.
func (f *FS) inDataArea(n *onDiskInode) bool {
	for _, e := range n.extents {
		if e.count != 0 && (e.start < f.layout.firstData || uint64(e.start)+uint64(e.count) > uint64(f.sb.blocksTotal)) {
			return false
		}
	}
	return true
}

func (f *FS) allocInodeNum() (uint32, *cachedInode, errno.Errno) {
	if f.sb.freeInodes == 0 {
		return 0, nil, errno.ENOSPC
	}
	for ino := uint32(RootIno + 1); ino <= f.sb.inodesTotal; ino++ {
		if f.getInode(ino) == nil {
			ci := &cachedInode{dirty: true}
			f.inodeCache[ino] = ci
			f.sb.freeInodes--
			f.dirty = true
			return ino, ci, errno.OK
		}
	}
	return 0, nil, errno.ENOSPC
}

func (f *FS) freeInodeNum(ino uint32) {
	ci := f.inodeCache[ino]
	if ci == nil {
		ci = &cachedInode{}
		f.inodeCache[ino] = ci
	}
	ci.onDiskInode = onDiskInode{}
	ci.dirty = true
	f.sb.freeInodes++
	f.dirty = true
}

// allocExtent grabs count contiguous free blocks, preferring to extend
// from a hint block (for contiguity).
func (f *FS) allocExtent(count uint32, hint uint32) (uint32, errno.Errno) {
	if f.sb.freeBlocks < count {
		return 0, errno.ENOSPC
	}
	tryRun := func(start uint32) bool {
		if start < f.layout.firstData || start+count > f.sb.blocksTotal {
			return false
		}
		for i := uint32(0); i < count; i++ {
			if bitmapGet(f.bitmap, start+i) {
				return false
			}
		}
		return true
	}
	start := uint32(0)
	if hint != 0 && tryRun(hint) {
		start = hint
	} else {
		for s := f.layout.firstData; s+count <= f.sb.blocksTotal; s++ {
			if tryRun(s) {
				start = s
				break
			}
		}
	}
	if start == 0 {
		return 0, errno.ENOSPC
	}
	for i := uint32(0); i < count; i++ {
		bitmapSet(f.bitmap, start+i)
	}
	f.sb.freeBlocks -= count
	f.dirty = true
	// Zero the new blocks.
	zero := make([]byte, BlockSize)
	for i := uint32(0); i < count; i++ {
		if err := f.dev.WriteAt(zero, int64(start+i)*BlockSize); err != nil {
			return 0, errno.EIO
		}
	}
	return start, errno.OK
}

func (f *FS) freeExtent(e extent) {
	for i := uint32(0); i < e.count; i++ {
		bitmapClear(f.bitmap, e.start+i)
	}
	f.sb.freeBlocks += e.count
	f.dirty = true
}

// ensureBlocks grows the extent map so the file covers size bytes.
func (f *FS) ensureBlocks(ci *cachedInode, size int64) errno.Errno {
	need := (size + BlockSize - 1) / BlockSize
	have := ci.blocks()
	for have < need {
		grow := uint32(need - have)
		// Try to extend the last extent contiguously.
		last := -1
		for i := range ci.extents {
			if ci.extents[i].count != 0 {
				last = i
			}
		}
		if last >= 0 {
			e := &ci.extents[last]
			hint := e.start + e.count
			if start, err := f.allocExtent(grow, hint); err == errno.OK && start == hint {
				e.count += grow
				ci.dirty = true
				return errno.OK
			} else if err == errno.OK {
				// Got a non-contiguous run: record as a new extent.
				slot := last + 1
				if slot >= NumExtents {
					f.freeExtent(extent{start: start, count: grow})
					return errno.EFBIG
				}
				ci.extents[slot] = extent{start: start, count: grow}
				ci.dirty = true
				return errno.OK
			} else if err != errno.ENOSPC {
				return err
			}
			// ENOSPC for the whole run: fall through to per-block growth.
			start, err := f.allocExtent(1, hint)
			if err != errno.OK {
				return err
			}
			if start == hint {
				e.count++
			} else {
				slot := last + 1
				if slot >= NumExtents {
					f.freeExtent(extent{start: start, count: 1})
					return errno.EFBIG
				}
				ci.extents[slot] = extent{start: start, count: 1}
			}
			ci.dirty = true
			have++
			continue
		}
		start, err := f.allocExtent(grow, 0)
		if err == errno.ENOSPC {
			start, err = f.allocExtent(1, 0)
			if err != errno.OK {
				return err
			}
			ci.extents[0] = extent{start: start, count: 1}
			ci.dirty = true
			have++
			continue
		}
		if err != errno.OK {
			return err
		}
		ci.extents[0] = extent{start: start, count: grow}
		ci.dirty = true
		return errno.OK
	}
	return errno.OK
}

// truncateBlocks releases blocks beyond block index keep.
func (f *FS) truncateBlocks(ci *cachedInode, keep int64) {
	pos := int64(0)
	for i := range ci.extents {
		e := &ci.extents[i]
		if e.count == 0 {
			continue
		}
		endIdx := pos + int64(e.count)
		switch {
		case pos >= keep:
			f.freeExtent(*e)
			*e = extent{}
		case endIdx > keep:
			cut := uint32(endIdx - keep)
			f.freeExtent(extent{start: e.start + e.count - cut, count: cut})
			e.count -= cut
		}
		pos = endIdx
		ci.dirty = true
	}
}

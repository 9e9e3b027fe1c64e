package extfs

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/spare"
	"mcfs/internal/vfs"
)

// FS is a mounted extfs volume.
//
// Metadata — the superblock, both bitmaps, and every inode touched — is
// cached in memory and written back on Sync and Unmount. File and
// directory data blocks are written through to the device. A mounted FS
// therefore carries real in-memory state that a model checker must either
// capture (the paper's proposed APIs) or discard via unmount/remount; if
// the backing device is restored underneath a live mount, the cached
// metadata silently diverges from disk (§3.2).
type FS struct {
	dev    blockdev.Device
	clock  *simclock.Clock
	sb     superblock
	layout layout

	// bufs is the mount's working memory; cache, when set, takes it back
	// at a successful Unmount or a Drop for the next mount of the device.
	bufs  *mountBufs
	cache *MountCache

	blockBitmap []byte // bufs.blockBitmap
	inodeBitmap []byte // bufs.inodeBitmap
	dirtyBBM    bool
	dirtyIBM    bool
	dirtySB     bool

	// dirtyMeta caches metadata block images (directory blocks, indirect
	// pointer blocks, symlink targets) written since the last Sync. Like
	// real ext4, these only reach the device inside a journaled Sync —
	// writing them through as they happen would make individual operations
	// non-atomic across a crash even with a journal. File data blocks are
	// NOT cached here: data is written through (and is legitimately
	// non-atomic, as on real ext4 in data=ordered mode).
	dirtyMeta map[uint32][]byte // bufs.dirtyMeta

	inodeCache map[uint32]*cachedInode // bufs.inodeCache

	journal journal // unused in ext2 mode (!sb.hasJournal())

	unmounted bool
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

// MountOpts tunes Mount behavior beyond the defaults.
type MountOpts struct {
	// JournalCommitFirst deliberately breaks the journal's write ordering:
	// the descriptor and commit records go to the device BEFORE the logged
	// block images. A crash between the commit record and the images makes
	// replay apply stale journal contents over live metadata. This is a
	// seeded bug for exercising the crash-consistency checker; never set
	// it outside of testing.
	JournalCommitFirst bool
	// Cache, when non-nil, amortizes mount-time validation CPU across
	// repeated mounts of the same volume — the model of a kernel whose
	// slab and geometry caches are still warm from the previous mount of
	// this device. The first mount through a cache pays the full
	// validation cost and records the volume geometry; later mounts of an
	// unchanged geometry pay only the per-mount residue (superblock
	// re-read and journal scan are still performed and separately
	// charged). A geometry change (re-mkfs) invalidates the cache. The
	// cache also passes a mount's block buffers on to the next mount of
	// the device once the first has unmounted, or has been dropped by a
	// power cut (Drop), and the FS struct with them.
	Cache *MountCache
}

// MountCache carries validated volume geometry, and the working memory of
// the last mount to unmount or be dropped, between mounts of one device.
// See MountOpts.Cache.
type MountCache struct {
	valid       bool
	blocksTotal uint32
	inodesTotal uint32
	journalLen  uint32
	bufs        *mountBufs
}

// mountBufs is the memory a mount works in: its blocks, in one
// allocation, and the maps and staging lists it empties rather than
// reallocates. A mount reads every block of it before it uses it, or
// clears it, takes the maps emptied and truncates a list before each use,
// so what an earlier mount left there never shows: the mount stays a
// function of the device's bytes. The name table is kept, not emptied:
// it maps bytes to the same bytes, so what it holds cannot show either.
// The FS itself lives here too: a mount sets every field of it.
type mountBufs struct {
	fs          FS
	sb          [BlockSize]byte // the superblock, as read and as encoded
	blockBitmap [BlockSize]byte
	inodeBitmap [BlockSize]byte
	scratch     [BlockSize]byte // readBlock's, and journal replay's
	desc        [BlockSize]byte // the journal's descriptor block
	commit      [BlockSize]byte // the journal's commit block

	dirtyMeta  map[uint32][]byte
	inodeCache map[uint32]*cachedInode
	// cached are the inode cache's entries: newInode hands out
	// cached[used] and counts it, growing the list only past what earlier
	// mounts used, and takes first what freeInode stacked in freed.
	cached []*cachedInode
	used   int
	freed  []*cachedInode
	// images holds the staged-metadata images no block holds, in a Slot a
	// collection reclaims: writeMetaBlock takes one before it makes one,
	// and Sync, freeBlock and takeBufs hand back what they unstage.
	images    spare.Slot[[][]byte]
	dirBlocks []uint32     // dirBlocks' list
	dirtyInos []uint32     // Sync's dirty inodes, in table order; takeBufs' staged blocks
	tables    [][]byte     // Sync's inode-table block images
	writes    []blockWrite // Sync's write list
	// names is the table of ReadDir's names and Readlink's targets: each
	// key is its own value, so a name is one string however often it is
	// listed or read, and what the table holds is a function of the
	// names' bytes alone.
	names     map[string]string
	nameBytes int // bytes held as keys
}

// maxNames and maxNameBytes bound the name table: past either, the table
// starts over. A symlink target can take a whole block.
const (
	maxNames     = 4096
	maxNameBytes = 1 << 20
)

// name returns raw as a string, from the name table when it holds it.
func (b *mountBufs) name(raw []byte) string {
	if s, ok := b.names[string(raw)]; ok {
		return s
	}
	if b.nameBytes += len(raw); len(b.names) == maxNames || b.nameBytes > maxNameBytes {
		clear(b.names)
		b.nameBytes = len(raw)
	}
	s := string(raw)
	b.names[s] = s
	return s
}

// takeBufs hands out the memory the cache holds, its maps emptied, or new
// memory. The images a power cut left staged go back on the free list, in
// block order.
func (c *MountCache) takeBufs() *mountBufs {
	if c == nil || c.bufs == nil {
		return &mountBufs{dirtyMeta: make(map[uint32][]byte), inodeCache: make(map[uint32]*cachedInode),
			names: make(map[string]string)}
	}
	b := c.bufs
	c.bufs = nil
	staged := b.dirtyInos[:0]
	for blk := range b.dirtyMeta {
		staged = append(staged, blk)
	}
	slices.Sort(staged)
	for _, blk := range staged {
		b.unstage(blk)
	}
	b.dirtyInos = staged
	clear(b.inodeCache)
	b.used, b.freed = 0, b.freed[:0]
	return b
}

// unstage drops blk's staged image, if any, onto the free list.
func (b *mountBufs) unstage(blk uint32) {
	if img, ok := b.dirtyMeta[blk]; ok {
		delete(b.dirtyMeta, blk)
		free, _ := b.images.Take()
		b.images.Put(append(free, img))
	}
}

// newInode returns a zeroed inode cache entry from the mount's list.
func (b *mountBufs) newInode() *cachedInode {
	var ci *cachedInode
	if k := len(b.freed); k > 0 {
		ci, b.freed = b.freed[k-1], b.freed[:k-1]
	} else {
		if b.used == len(b.cached) {
			b.cached = append(b.cached, new(cachedInode))
		}
		ci = b.cached[b.used]
		b.used++
	}
	*ci = cachedInode{}
	return ci
}

// keepBufs holds b for the next mount (a no-op without a cache).
func (c *MountCache) keepBufs(b *mountBufs) {
	if c != nil {
		c.bufs = b
	}
}

// NewMountCache returns an empty cache; the first mount through it
// pays full validation cost.
func NewMountCache() *MountCache { return &MountCache{} }

func (c *MountCache) warm(sb *superblock) bool {
	if c == nil {
		return false
	}
	if c.valid && c.blocksTotal == sb.blocksTotal &&
		c.inodesTotal == sb.inodesTotal && c.journalLen == sb.journalLen {
		return true
	}
	c.valid = true
	c.blocksTotal = sb.blocksTotal
	c.inodesTotal = sb.inodesTotal
	c.journalLen = sb.journalLen
	return false
}

// Mount reads the volume off the device and returns a live FS. In ext4
// mode, any committed-but-unapplied journal transactions are replayed
// first, exactly like jbd2 recovery.
func Mount(dev blockdev.Device, clock *simclock.Clock) (*FS, error) {
	return MountWith(dev, clock, MountOpts{})
}

// MountWith is Mount with explicit options.
func MountWith(dev blockdev.Device, clock *simclock.Clock, opts MountOpts) (*FS, error) {
	bufs := opts.Cache.takeBufs()
	f, err := mount(dev, clock, opts, bufs)
	if err != nil {
		opts.Cache.keepBufs(bufs) // nothing holds them
		return nil, err
	}
	return f, nil
}

func mount(dev blockdev.Device, clock *simclock.Clock, opts MountOpts, bufs *mountBufs) (*FS, error) {
	if err := dev.ReadAt(bufs.sb[:], 0); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(bufs.sb[:])
	if err != nil {
		return nil, err
	}
	l := computeLayout(sb.blocksTotal, sb.inodesTotal, sb.journalLen)
	f := &bufs.fs
	*f = FS{
		dev:         dev,
		clock:       clock,
		sb:          sb,
		layout:      l,
		bufs:        bufs,
		cache:       opts.Cache,
		blockBitmap: bufs.blockBitmap[:],
		inodeBitmap: bufs.inodeBitmap[:],
		dirtyMeta:   bufs.dirtyMeta,
		inodeCache:  bufs.inodeCache,
	}
	if sb.hasJournal() {
		f.journal = journal{dev: dev, start: l.journal, size: l.journalLen, bufs: bufs,
			commitFirst: opts.JournalCommitFirst}
		if err := f.journal.replay(); err != nil {
			return nil, fmt.Errorf("extfs: journal replay: %w", err)
		}
	}
	if err := dev.ReadAt(f.blockBitmap, int64(l.blockBitmap)*BlockSize); err != nil {
		return nil, err
	}
	if err := dev.ReadAt(f.inodeBitmap, int64(l.inodeBitmap)*BlockSize); err != nil {
		return nil, err
	}
	f.sb.mountCount++
	f.sb.flags |= sbFlagDirty
	f.dirtySB = true
	// Mount work is also CPU: superblock validation, bitmap indexing,
	// journal scan — charged beyond the I/O the reads already cost. When
	// a MountCache says this exact geometry was validated by a previous
	// mount, only the per-mount residue is charged (the superblock is
	// still re-decoded and the journal still scanned above, so a corrupt
	// volume fails identically on warm and cold mounts).
	if clock != nil {
		if opts.Cache.warm(&f.sb) {
			clock.Advance(25 * time.Microsecond)
		} else {
			clock.Advance(160 * time.Microsecond)
		}
	}
	return f, nil
}

// FSType implements vfs.Typer: "ext4" with a journal, "ext2" without.
func (f *FS) FSType() string {
	if f.sb.hasJournal() {
		return "ext4"
	}
	return "ext2"
}

// Unmount flushes all dirty state and marks the superblock clean. It ends
// the handle: the FS must not be used afterwards, since its working
// memory, the FS struct included, passes to the next mount through the
// MountCache it was mounted with, if any, and that mount may hand out the
// same *FS. Without a cache a second Unmount fails. A failed Unmount keeps
// the handle.
func (f *FS) Unmount() error {
	if f.unmounted {
		return fmt.Errorf("extfs: double unmount")
	}
	if e := f.Sync(); e != errno.OK {
		return e
	}
	f.sb.flags &^= sbFlagDirty
	if err := f.dev.WriteAt(f.sb.encode(f.bufs.sb[:]), 0); err != nil {
		return err
	}
	if f.clock != nil {
		f.clock.Advance(50 * time.Microsecond) // teardown CPU work
	}
	f.Drop() // flushed: from here on an unmount is a power cut
	return nil
}

// Drop implements kernel.Dropper: a power cut discards the FS without a
// flush, and its working memory passes to the next mount through the
// MountCache it was mounted with, if any, as at a successful Unmount. It
// writes nothing, and it ends the handle as Unmount does.
func (f *FS) Drop() {
	if f.unmounted {
		return
	}
	f.unmounted = true
	if f.cache != nil {
		f.cache.keepBufs(f.bufs)
		// No longer this FS's.
		f.bufs, f.blockBitmap, f.inodeBitmap = nil, nil, nil
		f.dirtyMeta, f.inodeCache = nil, nil
	}
}

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// --- block I/O helpers -------------------------------------------------

// readBlock returns blk's contents in the mount's read scratch, which the
// next readBlock (or blankBlock) overwrites: a caller scans, edits or
// copies the block before it reads again, and keeps no name or entry
// aliasing it past that.
func (f *FS) readBlock(blk uint32) ([]byte, error) {
	buf := f.bufs.scratch[:]
	return buf, f.readBlockInto(buf, blk)
}

// readBlockInto reads blk into buf: the staged image if there is one,
// else the device's bytes.
func (f *FS) readBlockInto(buf []byte, blk uint32) error {
	if img, ok := f.dirtyMeta[blk]; ok {
		copy(buf, img)
		return nil
	}
	return f.dev.ReadAt(buf, int64(blk)*BlockSize)
}

// blankBlock returns the read scratch zeroed, to build a block image in.
func (f *FS) blankBlock() []byte {
	buf := f.bufs.scratch[:]
	clear(buf)
	return buf
}

func (f *FS) writeBlock(blk uint32, data []byte) error {
	return f.dev.WriteAt(data, int64(blk)*BlockSize)
}

// writeMetaBlock stages a metadata block image in memory; it reaches the
// device only inside the next Sync (journaled first in ext4 mode). It
// cannot fail: there is no device I/O until Sync. A block staged again
// reuses its image, and a block staged anew takes one from the free list
// before it makes one; data is a whole block, so no earlier image's
// bytes survive the copy.
func (f *FS) writeMetaBlock(blk uint32, data []byte) {
	img, ok := f.dirtyMeta[blk]
	if !ok {
		free, _ := f.bufs.images.Take()
		if k := len(free); k > 0 {
			img, free[k-1] = free[k-1], nil
			free = free[:k-1]
		} else {
			img = make([]byte, BlockSize)
		}
		f.bufs.images.Put(free)
		f.dirtyMeta[blk] = img
	}
	copy(img, data[:BlockSize])
}

// --- allocation ---------------------------------------------------------

// allocBlock finds a free data block, marks it used, and zeroes it.
func (f *FS) allocBlock() (uint32, errno.Errno) {
	if f.sb.freeBlocks == 0 {
		return 0, errno.ENOSPC
	}
	for blk := f.layout.firstData; blk < f.sb.blocksTotal; blk++ {
		if !bitmapGet(f.blockBitmap, blk) {
			bitmapSet(f.blockBitmap, blk)
			f.sb.freeBlocks--
			f.dirtyBBM = true
			f.dirtySB = true
			if err := f.writeBlock(blk, zeroBlock[:]); err != nil {
				return 0, errno.EIO
			}
			return blk, errno.OK
		}
	}
	return 0, errno.ENOSPC
}

func (f *FS) freeBlock(blk uint32) {
	if blk == 0 {
		return
	}
	f.bufs.unstage(blk)
	bitmapClear(f.blockBitmap, blk)
	f.sb.freeBlocks++
	f.dirtyBBM = true
	f.dirtySB = true
}

// allocInode finds a free inode number and initializes its cache entry.
func (f *FS) allocInode() (uint32, *cachedInode, errno.Errno) {
	if f.sb.freeInodes == 0 {
		return 0, nil, errno.ENOSPC
	}
	for ino := uint32(FirstFreeIno); ino <= f.sb.inodesTotal; ino++ {
		if !bitmapGet(f.inodeBitmap, ino) {
			bitmapSet(f.inodeBitmap, ino)
			f.sb.freeInodes--
			f.dirtyIBM = true
			f.dirtySB = true
			ci := f.bufs.newInode()
			ci.dirty = true
			f.inodeCache[ino] = ci
			return ino, ci, errno.OK
		}
	}
	return 0, nil, errno.ENOSPC
}

func (f *FS) freeInode(ino uint32) {
	bitmapClear(f.inodeBitmap, ino)
	f.sb.freeInodes++
	f.dirtyIBM = true
	f.dirtySB = true
	if ci, ok := f.inodeCache[ino]; ok {
		delete(f.inodeCache, ino)
		f.bufs.freed = append(f.bufs.freed, ci)
	}
}

// --- inode cache ---------------------------------------------------------

// getInode returns the cached inode, loading it from the inode table on
// first touch. Returns nil if the inode is not allocated.
func (f *FS) getInode(ino uint32) *cachedInode {
	if ino == 0 || ino > f.sb.inodesTotal {
		return nil
	}
	if !bitmapGet(f.inodeBitmap, ino) {
		return nil
	}
	if ci, ok := f.inodeCache[ino]; ok {
		return ci
	}
	buf, err := f.readBlock(f.inodeBlock(ino))
	if err != nil {
		return nil
	}
	off := ((ino - 1) % InodesPerBlock) * InodeSize
	ci := f.bufs.newInode()
	ci.onDiskInode = decodeInode(buf[off : off+InodeSize])
	f.inodeCache[ino] = ci
	return ci
}

func (f *FS) markDirty(ci *cachedInode) { ci.dirty = true }

// inodeBlock is the inode-table block holding ino's record.
func (f *FS) inodeBlock(ino uint32) uint32 { return f.layout.inodeTable + (ino-1)/InodesPerBlock }

// --- flush / journal -----------------------------------------------------

// blockWrite is one block image Sync sends to the device.
type blockWrite struct {
	blk  uint32
	data []byte
}

// Sync implements vfs.FS: it writes all dirty metadata back to the
// device. In ext4 mode the dirty metadata blocks are first logged to the
// journal and committed, then checkpointed in place — so a crash between
// those steps is recoverable at the next mount. It stages in the mount's
// memory: the write list, and an image per inode-table block holding a
// dirty inode.
func (f *FS) Sync() errno.Errno {
	b := f.bufs
	// Dirty inodes in table order, so each table block's are adjacent.
	inos := b.dirtyInos[:0]
	for ino, ci := range f.inodeCache {
		if ci.dirty {
			inos = append(inos, ino)
		}
	}
	slices.Sort(inos)
	b.dirtyInos = inos
	writes := b.writes[:0]
	var img []byte
	for i, ino := range inos {
		blk := f.inodeBlock(ino)
		if i == 0 || blk != f.inodeBlock(inos[i-1]) {
			// The table images are the first writes.
			if len(writes) == len(b.tables) {
				b.tables = append(b.tables, make([]byte, BlockSize))
			}
			img = b.tables[len(writes)]
			if err := f.readBlockInto(img, blk); err != nil {
				return errno.EIO
			}
			writes = append(writes, blockWrite{blk, img})
		}
		off := ((ino - 1) % InodesPerBlock) * InodeSize
		f.inodeCache[ino].encode(img[off : off+InodeSize])
	}
	// The bitmaps go out from the live arrays, which nothing changes
	// before the writes below.
	if f.dirtyBBM {
		writes = append(writes, blockWrite{f.layout.blockBitmap, f.blockBitmap})
	}
	if f.dirtyIBM {
		writes = append(writes, blockWrite{f.layout.inodeBitmap, f.inodeBitmap})
	}
	if f.dirtySB {
		writes = append(writes, blockWrite{0, f.sb.encode(b.sb[:])})
	}
	for blk, img := range f.dirtyMeta {
		writes = append(writes, blockWrite{blk, img})
	}
	b.writes = writes
	defer clear(writes) // hold no image past the Sync
	if len(writes) == 0 {
		return errno.OK
	}
	// Sort by block number: maps iterate in random order, and the crash
	// checker samples crash points by write index — the device must see
	// the same write sequence on every run of the same operation.
	slices.SortFunc(writes, func(a, b blockWrite) int { return cmp.Compare(a.blk, b.blk) })

	if f.sb.hasJournal() {
		if err := f.journal.commit(writes); err != nil {
			return errno.EIO
		}
	}
	for _, w := range writes {
		if err := f.writeBlock(w.blk, w.data); err != nil {
			return errno.EIO
		}
	}
	if f.sb.hasJournal() {
		if err := f.journal.checkpointDone(); err != nil {
			return errno.EIO
		}
	}
	for _, ci := range f.inodeCache {
		ci.dirty = false
	}
	// The staged images go back on the free list in write order.
	for _, w := range writes {
		b.unstage(w.blk)
	}
	f.dirtyBBM = false
	f.dirtyIBM = false
	f.dirtySB = false
	if err := f.dev.Sync(); err != nil {
		return errno.EIO
	}
	return errno.OK
}

// --- file block mapping ----------------------------------------------------

// blockForIndex returns the device block holding file block idx, or 0 if
// it is a hole. When allocate is set, holes are filled.
func (f *FS) blockForIndex(ci *cachedInode, idx int, allocate bool) (uint32, errno.Errno) {
	if idx < 0 || idx >= MaxFileBlocks {
		return 0, errno.EFBIG
	}
	if idx < NumDirect {
		if ci.direct[idx] == 0 && allocate {
			blk, e := f.allocBlock()
			if e != errno.OK {
				return 0, e
			}
			ci.direct[idx] = blk
			f.markDirty(ci)
		}
		return ci.direct[idx], errno.OK
	}
	// Indirect.
	if ci.indir == 0 {
		if !allocate {
			return 0, errno.OK
		}
		blk, e := f.allocBlock()
		if e != errno.OK {
			return 0, e
		}
		ci.indir = blk
		f.markDirty(ci)
	}
	ptrs, err := f.readBlock(ci.indir)
	if err != nil {
		return 0, errno.EIO
	}
	slot := (idx - NumDirect) * 4
	blk := uint32(ptrs[slot]) | uint32(ptrs[slot+1])<<8 | uint32(ptrs[slot+2])<<16 | uint32(ptrs[slot+3])<<24
	if blk == 0 && allocate {
		nb, e := f.allocBlock()
		if e != errno.OK {
			return 0, e
		}
		blk = nb
		ptrs[slot] = byte(blk)
		ptrs[slot+1] = byte(blk >> 8)
		ptrs[slot+2] = byte(blk >> 16)
		ptrs[slot+3] = byte(blk >> 24)
		f.writeMetaBlock(ci.indir, ptrs)
	}
	return blk, errno.OK
}

// truncateBlocks releases all file blocks at index >= keep.
func (f *FS) truncateBlocks(ci *cachedInode, keep int) errno.Errno {
	for i := keep; i < NumDirect; i++ {
		if ci.direct[i] != 0 {
			f.freeBlock(ci.direct[i])
			ci.direct[i] = 0
			f.markDirty(ci)
		}
	}
	if ci.indir == 0 {
		return errno.OK
	}
	ptrs, err := f.readBlock(ci.indir)
	if err != nil {
		return errno.EIO
	}
	indirKeep := keep - NumDirect
	if indirKeep < 0 {
		indirKeep = 0
	}
	changed := false
	anyLeft := false
	for i := 0; i < PtrsPerBlock; i++ {
		slot := i * 4
		blk := uint32(ptrs[slot]) | uint32(ptrs[slot+1])<<8 | uint32(ptrs[slot+2])<<16 | uint32(ptrs[slot+3])<<24
		if blk == 0 {
			continue
		}
		if i >= indirKeep {
			f.freeBlock(blk)
			ptrs[slot], ptrs[slot+1], ptrs[slot+2], ptrs[slot+3] = 0, 0, 0, 0
			changed = true
		} else {
			anyLeft = true
		}
	}
	if !anyLeft {
		f.freeBlock(ci.indir)
		ci.indir = 0
		f.markDirty(ci)
		return errno.OK
	}
	if changed {
		f.writeMetaBlock(ci.indir, ptrs)
	}
	return errno.OK
}

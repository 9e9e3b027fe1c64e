// Package jffs2sim implements a JFFS2-like log-structured flash file
// system on a simulated MTD character device.
//
// The paper includes JFFS2 to show MCFS handling file systems that mount
// on special devices: JFFS2 needs an MTD device (provided via mtdram),
// and MCFS reaches the flash contents for state tracking through the
// mtdblock bridge (§4, Figure 1). Here jffs2sim programs
// internal/blockdev.MTD directly, and the remount tracker checkpoints the
// same MTD with undo frames, charged as the copy through mtdblock.
//
// Like real JFFS2, everything on flash is a log node: inode nodes carry
// file data or truncations, dirent nodes carry directory updates (with a
// zero inode number acting as a deletion marker). Mounting scans the
// entire device and replays nodes in version order to rebuild the
// in-memory state — which is why JFFS2 remounts are expensive, a cost the
// paper's per-operation remount policy pays continually. Garbage
// collection compacts live state into erased blocks when the log fills.
//
// The virtual clock is charged for that whole scan on every mount. The Go
// need not redo it: the mounted state is a function of the flash, so what
// the scan found in an erase block stays true until the block's bytes
// change. A ScanCache keeps, per block, where the valid nodes lie and the
// names the dirent nodes carry (never the flash's bytes themselves), keyed
// by the MTD's change stamp; a mount through it reads every block, as the
// charge says, and parses only the ones that changed. The cache also holds
// the last mount's inode table, as a spare, once that mount has unmounted
// or been dropped: the next replay rebuilds into the same structs, maps
// and arrays instead of allocating them again. And it holds a memo of the
// last replay's result under the stamps of every block it read: a mount
// that finds no stamp moved copies the memo into the table and replays
// nothing. The memo is copied as the replay ends, before any op runs, and
// shares no array or map with the table an FS mutates, so a change an op
// makes in memory without logging it never survives a remount.
package jffs2sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"slices"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/spare"
	"mcfs/internal/vfs"
)

// Node format constants.
const (
	// NodeMagic marks every log node (JFFS2's real magic, 0x1985).
	NodeMagic = 0x1985
	// nodeInode is an inode node: metadata plus an optional data payload.
	nodeInode = 1
	// nodeDirent is a directory-entry node.
	nodeDirent = 2
	// MaxDataPerNode bounds the payload of one inode node; large writes
	// split into multiple nodes, like JFFS2's page-sized writes.
	MaxDataPerNode = 512
	// RootIno is the root directory's inode number.
	RootIno = 1

	nodeHeader  = 16 // magic(2) type(2) totLen(4) version(4) crc(4)
	inodeFixed  = 50 // an inode node's payload before its target and data
	direntFixed = 10 // a dirent node's payload before its name
)

// FS is a mounted jffs2sim volume. All state lives in memory after the
// mount-time scan; flash holds the durable log.
type FS struct {
	mtd   *blockdev.MTD
	clock *simclock.Clock
	// cache is the ScanCache the FS was mounted through; Unmount and Drop
	// hand it the inode table.
	cache *ScanCache

	inodes  map[uint32]*inodeInfo
	nextIno uint32
	version uint32 // global node version counter
	gen     uint64 // this mount's replay generation (inodeInfo.gen)

	// log write head
	curBlock int
	curOff   int
	// per-eraseblock used bytes (live + dead); dead tracked for GC stats
	blockUsed []int

	// node is the scratch the next log node is encoded in; Program
	// copies it to flash. lens is the scratch an operation lists the
	// total lengths of its nodes in, for makeRoom.
	node []byte
	lens []int

	inGC      bool
	unmounted bool
}

type inodeInfo struct {
	mode  vfs.Mode
	nlink uint32
	uid   uint32
	gid   uint32
	size  int64
	atime time.Duration
	mtime time.Duration
	ctime time.Duration
	// content holds the file's first len(content) bytes; the rest, up to
	// size, read as zero. writeAt and truncate keep a tail of zeros
	// implicit, so a replay allocates no zeros the log does not call for.
	// Bytes in content's spare capacity may be stale, from a shrink or an
	// earlier mount: writeAt zeroes what it grows over short of its data.
	content []byte
	target  string
	entries map[string]uint32
	order   []string
	parent  uint32

	// gen is the mount generation whose replay last reached the struct;
	// a struct of an older one is the last mount's, not yet replayed.
	gen uint64
	// oldEntries is the entry map of a directory an earlier mount had
	// here, kept for the replay that makes it a directory again.
	oldEntries map[string]uint32
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.RenameFS = (*FS)(nil)
var _ vfs.LinkFS = (*FS)(nil)
var _ vfs.SymlinkFS = (*FS)(nil)
var _ vfs.Typer = (*FS)(nil)

// Mkfs erases the whole MTD device, leaving an empty log. An empty log
// mounts as an empty file system with just the root directory.
func Mkfs(mtd *blockdev.MTD) error {
	blocks := int(mtd.Size()) / mtd.EraseSize()
	for i := 0; i < blocks; i++ {
		if err := mtd.Erase(i); err != nil {
			return err
		}
	}
	return nil
}

// ScanCache carries what mount scans learned about one MTD's erase blocks
// from mount to mount: for each block, the change stamp it was scanned
// under, where its valid nodes lie and the names its dirent nodes carry.
// It holds positions and names, never the flash's bytes, so it pins no
// block the MTD lends; and since a stamp that has not moved means bytes
// that have not changed (blockdev.MTD), a block's entry is exactly what
// scanning the block again would find.
//
// It also keeps, in a spare.Slot, the inode table and the FS struct of
// the last mount through it to unmount or be dropped, which the next mount
// replays into and hands out, and a memo of the last replay, which a mount
// of unchanged flash copies into the table instead of replaying. The memo
// waits in the slot while an FS holds the table too. A collection reclaims
// both; the next mount then allocates an FS and a table, and the next
// replay into a reused table a memo.
type ScanCache struct {
	mtd    *blockdev.MTD
	blocks []blockScan
	// replay is one mount's nodes in scan order, payloads lent by the MTD,
	// and keys their replay order: version<<32 | index into replay. Both
	// are scratch, cleared before the mount returns.
	replay []logNode
	keys   []uint64
	// lent is one mount's blocks as the MTD lent them, scratch as well.
	lent [][]byte
	// inos is the scratch the replay and the memo list inode numbers in,
	// to drop or add structs in number order.
	inos []uint32
	// early is the replay's scratch list of the dirents it met before the
	// inode node of the inode they name (applyDirentNode).
	early []early
	table spare.Slot[table]
	// free holds inode structs no table holds, with their content and
	// order arrays and entry maps: those a replay, a memo copy, an unlink
	// or an rmdir let go of. A mount or a create takes them before it
	// allocates one, and a collection reclaims the list.
	free spare.Slot[[]*inodeInfo]
	// names interns the names the scan decodes and the link targets the
	// replay reads: each key is its own value, so what the table holds is
	// a function of the names' bytes alone. It starts over past maxNames
	// entries or maxNameBytes bytes.
	names     map[string]string
	nameBytes int
	// gen numbers the mounts through the cache (inodeInfo.gen), so no two
	// replays or copies into any table or memo share one.
	gen uint64
	// hits counts the mounts the memo served.
	hits int
}

// early is a dirent a replay met before the inode node of the inode it
// names: name in parent names ino.
type early struct {
	parent, ino uint32
	name        string
}

// table is the memory a mount replays into — its inode map, whose structs
// keep their content, entries and order arrays, the per-block fill and the
// FS struct itself; all nil while an FS holds them — and the memo.
type table struct {
	inodes    map[uint32]*inodeInfo
	blockUsed []int
	fs        *FS
	memo      memo
}

// memo is a copy of the last replay's result, taken as the replay ended
// and before any op ran, under the stamps of the blocks it read: with no
// stamp moved since, the flash means exactly this. It shares no struct,
// array or map with the table an FS mutates, so nothing an op changes in
// memory without logging it can reach a later mount through it.
type memo struct {
	stamps []uint64 // one per erase block; nil when nothing is kept
	// inodes holds the replay's inodes, of generation gen, and the structs
	// of inodes an older replay had, kept for reuse until a collection.
	inodes           map[uint32]*inodeInfo
	gen              uint64
	nextIno, version uint32
}

// blockScan is the scan result of one erase block, valid while known and
// the block's change stamp is still stamp.
type blockScan struct {
	known bool
	stamp uint64
	// used is how far into the block the write head may not append: the
	// end of the last valid node, or the whole block if the scan sealed it.
	used  int
	nodes []nodeRef
}

// nodeRef places one valid node's payload inside its erase block; zero
// marks an inode node whose data fragment is all zero bytes, and name is
// a well-formed dirent node's name, decoded once per scan of the block.
type nodeRef struct {
	version uint32
	typ     uint16
	zero    bool
	off, n  int32
	name    string
}

// logNode is one valid node on its way to replay.
type logNode struct {
	typ     uint16
	zero    bool
	payload []byte
	name    string
}

// NewScanCache returns an empty cache: the first mount through it scans
// every block.
func NewScanCache() *ScanCache { return &ScanCache{} }

// maxNames and maxNameBytes bound the cache's name table.
const (
	maxNames     = 4096
	maxNameBytes = 1 << 20
)

// intern returns raw as a string, from the name table when it holds it.
func (c *ScanCache) intern(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	if s, ok := c.names[string(raw)]; ok {
		return s
	}
	if c.names == nil {
		c.names = make(map[string]string)
	}
	if c.nameBytes += len(raw); len(c.names) == maxNames || c.nameBytes > maxNameBytes {
		clear(c.names)
		c.nameBytes = len(raw)
	}
	s := string(raw)
	c.names[s] = s
	return s
}

// Mount scans the full flash device, replaying log nodes in version order
// to rebuild the in-memory file system.
func Mount(mtd *blockdev.MTD, clock *simclock.Clock) (*FS, error) {
	return MountCached(mtd, clock, NewScanCache())
}

// MountCached is Mount for a caller that mounts the same MTD again and
// again and keeps one cache beside it: blocks whose bytes have not changed
// since an earlier mount through cache are read — the device books and
// charges every block's read, and the fault plane can fail it — but not
// parsed again, and the replay rebuilds into the inode table the last
// mount through cache left behind at its Unmount or Drop. When no block
// has changed since the replay the cache's memo keeps, there is no replay:
// the memo is copied into the table. The file system it builds, and the
// virtual time it takes, are Mount's.
func MountCached(mtd *blockdev.MTD, clock *simclock.Clock, cache *ScanCache) (*FS, error) {
	es := mtd.EraseSize()
	if cache.mtd != mtd {
		*cache = ScanCache{mtd: mtd, blocks: make([]blockScan, int(mtd.Size())/es)}
	}
	t, _ := cache.table.Take()
	reused := t.inodes != nil
	if !reused {
		t.inodes, t.blockUsed = make(map[uint32]*inodeInfo), make([]int, len(cache.blocks))
	}
	cache.gen++
	f := t.fs
	if f == nil {
		f = new(FS)
	}
	*f = FS{
		mtd:       mtd,
		clock:     clock,
		cache:     cache,
		inodes:    t.inodes,
		nextIno:   RootIno + 1,
		gen:       cache.gen,
		blockUsed: t.blockUsed,
		node:      f.node[:0],
		lens:      f.lens[:0],
	}
	m := &t.memo

	// Full device scan: every block is read, and parsed again if its
	// stamp moved since the cache last parsed it. The bytes are the
	// flash's own, lent until it next changes: replay copies what it
	// keeps, and the scratch lets go of the rest however the mount ends.
	lent := cache.lent[:0]
	defer func() {
		clear(lent)
		cache.lent = lent[:0]
	}()
	hit := len(m.stamps) == len(cache.blocks)
	for blk := range f.blockUsed {
		b := &cache.blocks[blk]
		data, stamp, err := mtd.LendBlock(blk)
		if err != nil {
			b.known = false
			t.fs = f
			cache.table.Put(t) // for the next mount
			return nil, err
		}
		if !b.known || b.stamp != stamp {
			b.scan(data, cache)
			b.known, b.stamp = true, stamp
		}
		f.blockUsed[blk] = b.used
		hit = hit && m.stamps[blk] == stamp
		lent = append(lent, data)
	}
	// Position the write head at the first block with free space; with
	// none, past the end of block 0, so the first append collects.
	f.curBlock, f.curOff = 0, es
	for blk, used := range f.blockUsed {
		if used < es {
			f.curBlock, f.curOff = blk, used
			break
		}
	}

	// Flash whose every block reads as the memo's did mounts as the memo
	// says, since a stamp that has not moved means bytes that have not.
	// Anything else replays; a table that came back from an unmount then
	// keeps a copy of the result for the next mount (a first mount's FS
	// may never unmount, and the copy would be waste).
	if hit {
		cache.hits++
		m.restore(f)
	} else {
		f.replay(lent)
		if reused {
			m.keep(f)
		}
	}
	// The memo waits in the slot, weakly held, while f holds the table.
	cache.table.Put(table{memo: *m})
	if clock != nil {
		clock.Advance(200 * time.Microsecond) // scan/index CPU cost
	}
	return f, nil
}

// replay rebuilds the inode table from every valid node of the lent
// blocks, in version order. Two nodes share a version only on crafted
// flash, and then replay in scan order.
func (f *FS) replay(lent [][]byte) {
	root := f.replayed(RootIno)
	root.mode, root.nlink, root.parent = vfs.ModeDir|0755, 2, RootIno
	root.makeEntries()

	cache := f.cache
	nodes, keys := cache.replay[:0], cache.keys[:0]
	defer func() {
		clear(nodes)
		cache.replay, cache.keys = nodes[:0], keys[:0]
	}()
	for blk, data := range lent {
		for _, n := range cache.blocks[blk].nodes {
			keys = append(keys, uint64(n.version)<<32|uint64(len(nodes)))
			nodes = append(nodes, logNode{typ: n.typ, zero: n.zero, payload: data[n.off : n.off+n.n], name: n.name})
			f.version = max(f.version, n.version)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		n := &nodes[uint32(k)]
		switch n.typ {
		case nodeInode:
			f.applyInodeNode(n.payload, n.zero)
		case nodeDirent:
			f.applyDirentNode(n.payload, n.name)
		}
	}
	// A directory whose dirent came before its inode node takes its
	// parent now, if the dirent still stands. Its link in the parent is
	// counted already: the one log that holds such a pair is a
	// collection's, which writes the parent's inode node, current link
	// count and all, before the parent's dirents.
	for _, e := range cache.early {
		if child, dir := f.live(e.ino), f.live(e.parent); child != nil && child.mode.IsDir() && dir != nil && dir.entries[e.name] == e.ino {
			child.parent = e.parent
		}
	}
	clear(cache.early)
	cache.early = cache.early[:0]
	// Drop inodes with no links (fully deleted), and those of the last
	// mount this replay never reached.
	dead := cache.inos[:0]
	for ino, nd := range f.inodes {
		if ino != RootIno && (nd.nlink == 0 || nd.gen != f.gen) {
			dead = append(dead, ino)
		}
	}
	slices.Sort(dead)
	for _, ino := range dead {
		f.dropInode(ino)
	}
	cache.inos = dead[:0]
}

// keep makes the memo a copy of what f's replay just built, under the
// stamps of the blocks it read. An inode the replay did not build keeps
// its struct in the memo, marked as of an older replay, for a later one
// that builds it again — an exploration creates and rewinds the same
// inodes over and over. Such structs last until a collection takes the
// memo, so they are never more than the garbage collector lets be.
func (m *memo) keep(f *FS) {
	if m.inodes == nil {
		m.inodes = make(map[uint32]*inodeInfo, len(f.inodes))
	}
	for ino, src := range f.inodes {
		dst := m.inodes[ino]
		if dst == nil {
			dst = new(inodeInfo)
			m.inodes[ino] = dst
		}
		dst.copyFrom(src, f.gen)
	}
	m.gen, m.nextIno, m.version = f.gen, f.nextIno, f.version
	m.stamps = m.stamps[:0]
	for _, b := range f.cache.blocks {
		m.stamps = append(m.stamps, b.stamp)
	}
}

// restore makes f's inode table a copy of the memo's, in the structs,
// arrays and maps the table already has: an inode the memo lacks goes,
// and one the table lacks gets a struct from the free list, in inode
// number order.
func (m *memo) restore(f *FS) {
	inos := f.cache.inos[:0]
	for ino := range f.inodes {
		if src := m.inodes[ino]; src == nil || src.gen != m.gen {
			inos = append(inos, ino)
		}
	}
	slices.Sort(inos)
	for _, ino := range inos {
		f.dropInode(ino)
	}
	inos = inos[:0]
	for ino, src := range m.inodes {
		if src.gen != m.gen {
			continue
		}
		if dst := f.inodes[ino]; dst != nil {
			dst.copyFrom(src, f.gen)
		} else {
			inos = append(inos, ino)
		}
	}
	slices.Sort(inos)
	for _, ino := range inos {
		nd := f.newInode()
		f.inodes[ino] = nd
		nd.copyFrom(m.inodes[ino], f.gen)
	}
	f.cache.inos = inos[:0]
	f.nextIno, f.version = m.nextIno, m.version
}

// copyFrom makes nd a copy of src, of generation gen, that shares nothing
// with it: content, order and entries go into nd's own arrays and map.
func (nd *inodeInfo) copyFrom(src *inodeInfo, gen uint64) {
	content, order := nd.content[:0], nd.order[:0]
	old := nd.entries
	if old == nil {
		old = nd.oldEntries
	}
	*nd = *src
	nd.gen = gen
	nd.content = append(content, src.content...)
	nd.order = append(order, src.order...)
	nd.entries, nd.oldEntries = nil, old
	if src.entries != nil {
		nd.makeEntries()
		maps.Copy(nd.entries, src.entries)
	}
}

// replayed returns ino's inode as this mount's replay has it: the struct
// under ino in the table, emptied the first time the replay reaches it
// (its arrays and entry map kept for reuse), or one from the free list.
func (f *FS) replayed(ino uint32) *inodeInfo {
	nd := f.inodes[ino]
	if nd == nil {
		nd = f.newInode()
		f.inodes[ino] = nd
	} else if nd.gen != f.gen {
		nd.reset(f.gen)
	}
	return nd
}

// reset empties nd as a struct of generation gen, keeping its content and
// order arrays and, for a later directory, its entry map.
func (nd *inodeInfo) reset(gen uint64) {
	old := nd.entries
	if old == nil {
		old = nd.oldEntries
	}
	*nd = inodeInfo{gen: gen, content: nd.content[:0], order: nd.order[:0], oldEntries: old}
}

// newInode returns an emptied struct of this mount's generation: the last
// one the cache's free list got, or a new one.
func (f *FS) newInode() *inodeInfo {
	free, _ := f.cache.free.Take()
	var nd *inodeInfo
	if k := len(free); k > 0 {
		nd, free[k-1] = free[k-1], nil
		free = free[:k-1]
	} else {
		nd = new(inodeInfo)
	}
	f.cache.free.Put(free)
	nd.reset(f.gen)
	return nd
}

// dropInode removes ino from the table and puts its struct on the cache's
// free list; nothing else may hold the struct.
func (f *FS) dropInode(ino uint32) {
	nd := f.inodes[ino]
	if nd == nil {
		return
	}
	delete(f.inodes, ino)
	free, _ := f.cache.free.Take()
	f.cache.free.Put(append(free, nd))
}

// live returns ino's inode if this mount's replay has reached it.
func (f *FS) live(ino uint32) *inodeInfo {
	if nd := f.inodes[ino]; nd != nil && nd.gen == f.gen {
		return nd
	}
	return nil
}

// makeEntries gives a directory inode an empty entry map unless it has
// one: the map an earlier mount had here, emptied, or a new one.
func (nd *inodeInfo) makeEntries() {
	if nd.entries != nil {
		return
	}
	m := nd.oldEntries
	if m == nil {
		m = make(map[string]uint32)
	}
	clear(m)
	nd.entries, nd.oldEntries = m, nil
}

// scan parses one erase block's bytes in place, replacing what b held:
// every node up to the first that fails a check is recorded by position,
// and a dirent's name interned in the cache's table.
func (b *blockScan) scan(buf []byte, cache *ScanCache) {
	es := len(buf)
	b.nodes = b.nodes[:0]
	pos := 0
	sealed := false
	for pos+nodeHeader <= es {
		le := binary.LittleEndian
		if le.Uint16(buf[pos:]) != NodeMagic {
			// All-0xFF means the erased tail of the block. Anything
			// else is the debris of a write that tore inside the
			// header: seal the block so the write head never programs
			// over half-written flash.
			if !erasedRegion(buf[pos : pos+nodeHeader]) {
				sealed = true
			}
			break
		}
		typ := le.Uint16(buf[pos+2:])
		totLen := int(le.Uint32(buf[pos+4:]))
		version := le.Uint32(buf[pos+8:])
		crc := le.Uint32(buf[pos+12:])
		if totLen < nodeHeader || pos+totLen > es {
			// Torn header: the length field never finished programming.
			sealed = true
			break
		}
		want := crc32.ChecksumIEEE(buf[pos : pos+12])
		want = crc32.Update(want, crc32.IEEETable, buf[pos+nodeHeader:pos+totLen])
		if crc != want {
			// Torn or corrupted node: like real JFFS2, the scan drops
			// the bad node and everything after it in the block — the
			// log up to this point is the consistent prefix.
			sealed = true
			break
		}
		ref := nodeRef{version: version, typ: typ, off: int32(pos + nodeHeader), n: int32(totLen - nodeHeader)}
		switch p := buf[pos+nodeHeader : pos+totLen]; typ {
		case nodeInode:
			_, data, ok := inodeFragment(p)
			ref.zero = ok && allZero(data)
		case nodeDirent:
			if name, ok := direntName(p); ok {
				ref.name = cache.intern(name)
			}
		}
		b.nodes = append(b.nodes, ref)
		pos += totLen
	}
	if sealed {
		b.used = es // no appends here until GC erases it
	} else {
		b.used = pos
	}
}

// erasedRegion reports whether every byte is still in the erased (0xFF)
// state.
func erasedRegion(p []byte) bool {
	for _, b := range p {
		if b != 0xFF {
			return false
		}
	}
	return true
}

// zeros is what allZero compares against, a run at a time.
var zeros [MaxDataPerNode]byte

// allZero reports whether every byte of p is zero.
func allZero(p []byte) bool {
	for len(p) > 0 {
		n := min(len(p), len(zeros))
		if !bytes.Equal(p[:n], zeros[:n]) {
			return false
		}
		p = p[n:]
	}
	return true
}

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "jffs2" }

// Unmount releases the in-memory state. The log is already durable, so
// it writes nothing. It ends the handle: the FS must not be used
// afterwards, since its inode table and the FS struct itself pass to the
// next mount through the ScanCache it was mounted with, and that mount
// may hand out the same *FS.
func (f *FS) Unmount() error {
	if f.unmounted {
		return fmt.Errorf("jffs2sim: double unmount")
	}
	f.Drop()
	return nil
}

// Drop implements kernel.Dropper: a power cut discards the FS, and its
// inode table and struct pass to the next mount as at an Unmount. It
// writes nothing, and it ends the handle as Unmount does.
func (f *FS) Drop() {
	if f.unmounted {
		return
	}
	f.unmounted = true
	t, _ := f.cache.table.Take() // the memo, unless a collection took it
	f.cache.table.Put(table{inodes: f.inodes, blockUsed: f.blockUsed, fs: f, memo: t.memo})
	f.inodes, f.blockUsed = nil, nil // no longer this FS's
}

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// --- node encoding -------------------------------------------------------

// inode node payload: ino(4) mode(4) nlink(4) uid(4) gid(4) isize(8)
// mtime(8) off(8) dataLen(4) target? -> targetLen(2) target data[]
//
// appendInodeNode appends an inode node to dst: room for the header,
// which appendNode fills in, then the payload.
func appendInodeNode(dst []byte, nd *inodeInfo, ino uint32, off int64, data []byte) []byte {
	n := len(dst) + nodeHeader
	dst = grow(dst, nodeHeader+inodeFixed+len(nd.target)+len(data))
	p := dst[n:]
	le := binary.LittleEndian
	le.PutUint32(p[0:], ino)
	le.PutUint32(p[4:], uint32(nd.mode))
	le.PutUint32(p[8:], nd.nlink)
	le.PutUint32(p[12:], nd.uid)
	le.PutUint32(p[16:], nd.gid)
	le.PutUint64(p[20:], uint64(nd.size))
	le.PutUint64(p[28:], uint64(nd.mtime))
	le.PutUint64(p[36:], uint64(off))
	le.PutUint32(p[44:], uint32(len(data)))
	le.PutUint16(p[48:], uint16(len(nd.target)))
	copy(p[50:], nd.target)
	copy(p[50+len(nd.target):], data)
	return dst
}

// grow extends dst by n zero bytes, in place while its capacity lasts:
// unlike an append of a made slice, it makes no temporary under the race
// detector either.
func grow(dst []byte, n int) []byte {
	dst = slices.Grow(dst, n)[:len(dst)+n]
	clear(dst[len(dst)-n:])
	return dst
}

// inodeFragment returns the link target and the data fragment an inode
// node's payload carries; ok is false when the payload is shorter than
// the lengths it states.
func inodeFragment(p []byte) (target, data []byte, ok bool) {
	if len(p) < inodeFixed {
		return nil, nil, false
	}
	le := binary.LittleEndian
	dataLen := int(le.Uint32(p[44:]))
	targetLen := int(le.Uint16(p[48:]))
	if inodeFixed+targetLen+dataLen > len(p) {
		return nil, nil, false
	}
	return p[inodeFixed : inodeFixed+targetLen], p[inodeFixed+targetLen : inodeFixed+targetLen+dataLen], true
}

// applyInodeNode replays an inode node; zero says its data fragment is
// all zero bytes, as the scan found.
func (f *FS) applyInodeNode(p []byte, zero bool) {
	target, data, ok := inodeFragment(p)
	if !ok {
		return
	}
	le := binary.LittleEndian
	ino := le.Uint32(p[0:])
	mode := vfs.Mode(le.Uint32(p[4:]))
	nlink := le.Uint32(p[8:])
	uid := le.Uint32(p[12:])
	gid := le.Uint32(p[16:])
	isize := int64(le.Uint64(p[20:]))
	mtime := time.Duration(le.Uint64(p[28:]))
	off := int64(le.Uint64(p[36:]))
	if isize < 0 || off < 0 || off > math.MaxInt64-int64(len(data)) {
		return // no log jffs2sim writes holds such a node
	}

	nd := f.replayed(ino)
	nd.mode = mode
	nd.nlink = nlink
	nd.uid = uid
	nd.gid = gid
	nd.mtime = mtime
	nd.ctime = mtime
	nd.target = f.cache.intern(target)
	if mode.IsDir() {
		nd.makeEntries()
	}
	nd.writeAt(off, data, zero)
	nd.truncate(isize)
	if ino >= f.nextIno {
		f.nextIno = ino + 1
	}
}

// writeAt puts data at off, growing the file to cover it; zero says data
// is all zero bytes. Zeros at or past the end of content are already
// there, implicitly, so they change only the size. Content grows in place
// while its capacity lasts, and the gap before off, stale or not, reads
// as the zeros it was.
func (nd *inodeInfo) writeAt(off int64, data []byte, zero bool) {
	end := off + int64(len(data))
	nd.size = max(nd.size, end)
	n := int64(len(nd.content))
	switch {
	case zero && off >= n:
	case zero:
		clear(nd.content[off:min(end, n)])
	default:
		if off > n {
			nd.content = slices.Grow(nd.content, int(end-n))[:off]
			clear(nd.content[n:])
		}
		if end > int64(len(nd.content)) {
			// Appended, so a growth makes the new array and no temporary
			// (slices.Grow makes one too under the race detector).
			nd.content = append(nd.content[:off], data...)
		} else {
			copy(nd.content[off:], data)
		}
	}
}

// truncate sets the file's size. A shrink drops content past it; an
// extension is an implicit tail of zeros and allocates nothing.
func (nd *inodeInfo) truncate(size int64) {
	if size < int64(len(nd.content)) {
		nd.content = nd.content[:size]
	}
	nd.size = size
}

// dirent node payload: parent(4) ino(4) nameLen(2) name; ino 0 deletes.
//
// appendDirentNode appends a dirent node to dst as appendInodeNode does.
func appendDirentNode(dst []byte, parent, ino uint32, name string) []byte {
	n := len(dst) + nodeHeader
	dst = grow(dst, nodeHeader+direntFixed)
	le := binary.LittleEndian
	le.PutUint32(dst[n:], parent)
	le.PutUint32(dst[n+4:], ino)
	le.PutUint16(dst[n+8:], uint16(len(name)))
	return append(dst, name...)
}

// direntName returns the name a dirent node's payload carries; ok is
// false when the payload is shorter than the length it states.
func direntName(p []byte) (name []byte, ok bool) {
	if len(p) < direntFixed {
		return nil, false
	}
	nameLen := int(binary.LittleEndian.Uint16(p[8:]))
	if direntFixed+nameLen > len(p) {
		return nil, false
	}
	return p[direntFixed : direntFixed+nameLen], true
}

// applyDirentNode replays a dirent node whose name the scan decoded.
func (f *FS) applyDirentNode(p []byte, name string) {
	if _, ok := direntName(p); !ok {
		return
	}
	le := binary.LittleEndian
	parent := le.Uint32(p[0:])
	ino := le.Uint32(p[4:])
	dir := f.live(parent)
	if dir == nil || dir.entries == nil {
		return
	}
	// dropEntry removes name from the directory, keeping the parent's
	// link count in step when the removed child is a subdirectory (its
	// ".." contributed a link).
	dropEntry := func() {
		old, ok := dir.entries[name]
		if !ok {
			return
		}
		if child := f.live(old); child != nil && child.mode.IsDir() {
			dir.nlink--
		}
		delete(dir.entries, name)
		for i, n := range dir.order {
			if n == name {
				dir.order = append(dir.order[:i], dir.order[i+1:]...)
				break
			}
		}
	}
	if ino == 0 {
		dropEntry()
		return
	}
	// A dirent that overwrites an existing name (rename onto an occupied
	// target) displaces the old entry and repositions the name at the
	// end, matching the live code path.
	dropEntry()
	dir.order = append(dir.order, name)
	dir.entries[name] = ino
	switch child := f.live(ino); {
	case child == nil:
		f.cache.early = append(f.cache.early, early{parent, ino, name})
	case child.mode.IsDir():
		child.parent = parent
		dir.nlink++
	}
	if ino >= f.nextIno {
		f.nextIno = ino + 1
	}
}

// --- log appending & GC ---------------------------------------------------

// appendNode writes one node to the log, garbage-collecting if needed:
// node is the header's room and the payload (appendInodeNode,
// appendDirentNode), and the header is filled in place. A collection
// encodes into a buffer of its own, so node stays as it was.
func (f *FS) appendNode(typ uint16, node []byte) errno.Errno {
	totLen := len(node)
	es := f.mtd.EraseSize()
	if totLen > es {
		return errno.EFBIG
	}
	if !f.reserve(totLen) {
		if f.inGC {
			return errno.ENOSPC // the live state itself does not fit
		}
		if e := f.gc(); e != errno.OK {
			return e
		}
		if !f.reserve(totLen) {
			return errno.ENOSPC
		}
	}
	f.version++
	le := binary.LittleEndian
	le.PutUint16(node[0:], NodeMagic)
	le.PutUint16(node[2:], typ)
	le.PutUint32(node[4:], uint32(totLen))
	le.PutUint32(node[8:], f.version)
	crc := crc32.ChecksumIEEE(node[0:12])
	crc = crc32.Update(crc, crc32.IEEETable, node[nodeHeader:])
	le.PutUint32(node[12:], crc)
	if err := f.mtd.Program(node, int64(f.curBlock*es+f.curOff)); err != nil {
		return errno.EIO
	}
	f.curOff += totLen
	f.blockUsed[f.curBlock] = f.curOff
	return errno.OK
}

// makeRoom settles, before an operation changes anything, whether the
// nodes it is about to append — of these total lengths, in this order —
// fit in the log, garbage-collecting once if they do not: ENOSPC when even
// the compacted log has no room for them, EFBIG when one is longer than an
// erase block. Either way memory and flash still agree, because a
// collection rewrites exactly the state memory holds. After OK the appends
// cannot run out of space, so they need no undoing on that account.
func (f *FS) makeRoom(totLens ...int) errno.Errno {
	for _, n := range totLens {
		if n > f.mtd.EraseSize() {
			return errno.EFBIG
		}
	}
	if f.fits(totLens) {
		return errno.OK
	}
	if e := f.gc(); e != errno.OK {
		return e
	}
	if !f.fits(totLens) {
		return errno.ENOSPC
	}
	return errno.OK
}

// fits reports whether reserve would find room for nodes of these total
// lengths one after another without a garbage collection.
func (f *FS) fits(totLens []int) bool {
	es := f.mtd.EraseSize()
	off, free := f.curOff, 0
	for blk, used := range f.blockUsed {
		if used == 0 && blk != f.curBlock {
			free++
		}
	}
	for _, n := range totLens {
		if off+n > es {
			if free == 0 {
				return false
			}
			free--
			off = 0
		}
		off += n
	}
	return true
}

// reserve positions the write head at a region with room for n bytes.
func (f *FS) reserve(n int) bool {
	es := f.mtd.EraseSize()
	if f.curOff+n <= es {
		return true
	}
	// Seal the current block and find the next one with space.
	f.blockUsed[f.curBlock] = es
	for blk := 0; blk < len(f.blockUsed); blk++ {
		if f.blockUsed[blk] == 0 {
			f.curBlock, f.curOff = blk, 0
			return true
		}
	}
	return false
}

// gc compacts the entire live state into freshly erased blocks. Real
// JFFS2 collects block by block; whole-log compaction is the simplest
// policy with the same observable result and a similar (large) cost.
func (f *FS) gc() errno.Errno {
	f.inGC = true
	defer func() { f.inGC = false }()
	for blk := range f.blockUsed {
		if err := f.mtd.Erase(blk); err != nil {
			return errno.EIO
		}
		f.blockUsed[blk] = 0
	}
	f.curBlock, f.curOff = 0, 0
	// Rewrite every inode and dirent as fresh nodes.
	inos := make([]uint32, 0, len(f.inodes))
	for ino := range f.inodes {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	var chunk [MaxDataPerNode]byte
	var node []byte // not f.node: the collection may run inside an append of it
	for _, ino := range inos {
		nd := f.inodes[ino]
		// Metadata-plus-data nodes in MaxDataPerNode chunks up to the size,
		// the implicit tail written out as the zeros it reads as.
		if nd.size == 0 {
			node = appendInodeNode(node[:0], nd, ino, 0, nil)
			if e := f.appendNode(nodeInode, node); e != errno.OK {
				return e
			}
		}
		for off := int64(0); off < nd.size; off += MaxDataPerNode {
			n := min(nd.size-off, MaxDataPerNode)
			data := chunk[:n]
			clear(data[copy(data, nd.content[min(off, int64(len(nd.content))):]):])
			node = appendInodeNode(node[:0], nd, ino, off, data)
			if e := f.appendNode(nodeInode, node); e != errno.OK {
				return e
			}
		}
		if nd.entries != nil {
			for _, name := range nd.order {
				node = appendDirentNode(node[:0], ino, nd.entries[name], name)
				if e := f.appendNode(nodeDirent, node); e != errno.OK {
					return e
				}
			}
		}
	}
	return errno.OK
}

// appendInodeNodeLens appends to dst the total lengths of the nodes
// logInode appends for an inode with this link target and a data fragment
// of n bytes.
func appendInodeNodeLens(dst []int, target string, n int) []int {
	meta := nodeHeader + inodeFixed + len(target)
	if n <= MaxDataPerNode {
		return append(dst, meta+n)
	}
	for ; n > 0; n -= MaxDataPerNode {
		dst = append(dst, meta+min(n, MaxDataPerNode))
	}
	return dst
}

// logInode persists the current metadata of an inode.
func (f *FS) logInode(ino uint32, nd *inodeInfo) errno.Errno {
	f.node = appendInodeNode(f.node[:0], nd, ino, 0, nil)
	return f.appendNode(nodeInode, f.node)
}

// logData persists the current metadata of an inode with data at off, in
// nodes of at most MaxDataPerNode bytes: one, with no data, for an empty
// write. It returns how many bytes of data the nodes that reached the
// flash carry, and the error of the first that did not.
func (f *FS) logData(ino uint32, nd *inodeInfo, off int64, data []byte) (int, errno.Errno) {
	pos := 0
	for {
		end := min(pos+MaxDataPerNode, len(data))
		f.node = appendInodeNode(f.node[:0], nd, ino, off+int64(pos), data[pos:end])
		if e := f.appendNode(nodeInode, f.node); e != errno.OK {
			return pos, e
		}
		if pos = end; pos == len(data) {
			return pos, errno.OK
		}
	}
}

func (f *FS) logDirent(parent, ino uint32, name string) errno.Errno {
	f.node = appendDirentNode(f.node[:0], parent, ino, name)
	return f.appendNode(nodeDirent, f.node)
}

// Package jffs2sim implements a JFFS2-like log-structured flash file
// system on a simulated MTD character device.
//
// The paper includes JFFS2 to show MCFS handling file systems that mount
// on special devices: JFFS2 needs an MTD device (provided via mtdram),
// and MCFS reaches the flash contents for state tracking through the
// mtdblock bridge (§4, Figure 1). This reproduction keeps that shape:
// jffs2sim programs internal/blockdev.MTD directly, and the remount
// tracker snapshots the flash through blockdev.MTDBlock.
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
// change. A ScanCache keeps, per block, where the valid nodes lie (never
// their bytes), keyed by the MTD's change stamp; a mount through it reads
// every block, as the charge says, and parses only the ones that changed.
package jffs2sim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
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

	inodes  map[uint32]*inodeInfo
	nextIno uint32
	version uint32 // global node version counter

	// log write head
	curBlock int
	curOff   int
	// per-eraseblock used bytes (live + dead); dead tracked for GC stats
	blockUsed []int

	inGC      bool
	unmounted bool
}

type inodeInfo struct {
	mode    vfs.Mode
	nlink   uint32
	uid     uint32
	gid     uint32
	size    int64
	atime   time.Duration
	mtime   time.Duration
	ctime   time.Duration
	content []byte
	target  string
	entries map[string]uint32
	order   []string
	parent  uint32
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
// under and where its valid nodes lie. It holds positions, never flash
// bytes, so it pins nothing but itself; and since a stamp that has not
// moved means bytes that have not changed (blockdev.MTD), a block's entry
// is exactly what scanning the block again would find.
type ScanCache struct {
	mtd    *blockdev.MTD
	blocks []blockScan
	// replay is one mount's nodes in replay order, payloads lent by the
	// MTD. It is scratch: cleared before the mount returns.
	replay []logNode
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

// nodeRef places one valid node's payload inside its erase block.
type nodeRef struct {
	version uint32
	typ     uint16
	off, n  int32
}

// logNode is one valid node on its way to replay.
type logNode struct {
	version uint32
	typ     uint16
	payload []byte
}

// NewScanCache returns an empty cache: the first mount through it scans
// every block.
func NewScanCache() *ScanCache { return &ScanCache{} }

// Mount scans the full flash device, replaying log nodes in version order
// to rebuild the in-memory file system.
func Mount(mtd *blockdev.MTD, clock *simclock.Clock) (*FS, error) {
	return MountCached(mtd, clock, NewScanCache())
}

// MountCached is Mount for a caller that mounts the same MTD again and
// again and keeps one cache beside it: blocks whose bytes have not changed
// since an earlier mount through cache are read — the device books and
// charges every block's read, and the fault plane can fail it — but not
// parsed again. The file system it builds, and the virtual time it takes,
// are Mount's.
func MountCached(mtd *blockdev.MTD, clock *simclock.Clock, cache *ScanCache) (*FS, error) {
	es := mtd.EraseSize()
	f := &FS{
		mtd:       mtd,
		clock:     clock,
		inodes:    make(map[uint32]*inodeInfo),
		nextIno:   RootIno + 1,
		blockUsed: make([]int, int(mtd.Size())/es),
	}
	f.inodes[RootIno] = &inodeInfo{
		mode:    vfs.ModeDir | 0755,
		nlink:   2,
		entries: make(map[string]uint32),
		parent:  RootIno,
	}
	if cache.mtd != mtd {
		*cache = ScanCache{mtd: mtd, blocks: make([]blockScan, len(f.blockUsed))}
	}

	// Full device scan: collect every valid node. The payloads are the
	// flash's own bytes, lent until it next changes: replay copies what it
	// keeps, and the scratch lets go of the rest however the mount ends.
	nodes := cache.replay[:0]
	defer func() {
		clear(nodes)
		cache.replay = nodes[:0]
	}()
	for blk := range f.blockUsed {
		b := &cache.blocks[blk]
		data, stamp, err := mtd.LendBlock(blk)
		if err != nil {
			b.known = false
			return nil, err
		}
		if !b.known || b.stamp != stamp {
			b.scan(data)
			b.known, b.stamp = true, stamp
		}
		f.blockUsed[blk] = b.used
		for _, n := range b.nodes {
			nodes = append(nodes, logNode{version: n.version, typ: n.typ, payload: data[n.off : n.off+n.n]})
			f.version = max(f.version, n.version)
		}
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

	slices.SortFunc(nodes, func(a, b logNode) int { return cmp.Compare(a.version, b.version) })
	for _, n := range nodes {
		switch n.typ {
		case nodeInode:
			f.applyInodeNode(n.payload)
		case nodeDirent:
			f.applyDirentNode(n.payload)
		}
	}
	// Drop inodes with no links (fully deleted).
	for ino, nd := range f.inodes {
		if ino != RootIno && nd.nlink == 0 {
			delete(f.inodes, ino)
		}
	}
	if clock != nil {
		clock.Advance(200 * time.Microsecond) // scan/index CPU cost
	}
	return f, nil
}

// scan parses one erase block's bytes in place, replacing what b held:
// every node up to the first that fails a check is recorded by position.
func (b *blockScan) scan(buf []byte) {
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
		b.nodes = append(b.nodes, nodeRef{version: version, typ: typ, off: int32(pos + nodeHeader), n: int32(totLen - nodeHeader)})
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

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "jffs2" }

// Unmount releases the in-memory state. The log is already durable.
func (f *FS) Unmount() error {
	if f.unmounted {
		return fmt.Errorf("jffs2sim: double unmount")
	}
	f.unmounted = true
	return nil
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
func encodeInodeNode(nd *inodeInfo, ino uint32, off int64, data []byte) []byte {
	p := make([]byte, inodeFixed+len(nd.target)+len(data))
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
	return p
}

func (f *FS) applyInodeNode(p []byte) {
	if len(p) < 50 {
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
	dataLen := int(le.Uint32(p[44:]))
	targetLen := int(le.Uint16(p[48:]))
	if 50+targetLen+dataLen > len(p) {
		return
	}
	target := string(p[50 : 50+targetLen])
	data := p[50+targetLen : 50+targetLen+dataLen]

	nd := f.inodes[ino]
	if nd == nil {
		nd = &inodeInfo{}
		if mode.IsDir() {
			nd.entries = make(map[string]uint32)
		}
		f.inodes[ino] = nd
	}
	nd.mode = mode
	nd.nlink = nlink
	nd.uid = uid
	nd.gid = gid
	nd.mtime = mtime
	nd.ctime = mtime
	nd.target = target
	if mode.IsDir() && nd.entries == nil {
		nd.entries = make(map[string]uint32)
	}
	// Apply the data fragment, then clamp/extend to isize: content grows
	// once, to whichever of the two reaches further.
	need := isize
	if dataLen > 0 {
		need = max(need, off+int64(dataLen))
	}
	if int64(len(nd.content)) < need {
		nc := make([]byte, need)
		copy(nc, nd.content)
		nd.content = nc
	}
	if dataLen > 0 {
		copy(nd.content[off:off+int64(dataLen)], data)
	}
	nd.content = nd.content[:isize]
	nd.size = isize
	if ino >= f.nextIno {
		f.nextIno = ino + 1
	}
}

// dirent node payload: parent(4) ino(4) nameLen(2) name; ino 0 deletes.
func encodeDirentNode(parent, ino uint32, name string) []byte {
	p := make([]byte, direntFixed+len(name))
	le := binary.LittleEndian
	le.PutUint32(p[0:], parent)
	le.PutUint32(p[4:], ino)
	le.PutUint16(p[8:], uint16(len(name)))
	copy(p[10:], name)
	return p
}

func (f *FS) applyDirentNode(p []byte) {
	if len(p) < 10 {
		return
	}
	le := binary.LittleEndian
	parent := le.Uint32(p[0:])
	ino := le.Uint32(p[4:])
	nameLen := int(le.Uint16(p[8:]))
	if 10+nameLen > len(p) {
		return
	}
	name := string(p[10 : 10+nameLen])
	dir := f.inodes[parent]
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
		if child := f.inodes[old]; child != nil && child.mode.IsDir() {
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
	if child := f.inodes[ino]; child != nil && child.mode.IsDir() {
		child.parent = parent
		dir.nlink++
	}
	if ino >= f.nextIno {
		f.nextIno = ino + 1
	}
}

// --- log appending & GC ---------------------------------------------------

// appendNode writes one node to the log, garbage-collecting if needed.
func (f *FS) appendNode(typ uint16, payload []byte) errno.Errno {
	totLen := nodeHeader + len(payload)
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
	node := make([]byte, totLen)
	le := binary.LittleEndian
	le.PutUint16(node[0:], NodeMagic)
	le.PutUint16(node[2:], typ)
	le.PutUint32(node[4:], uint32(totLen))
	le.PutUint32(node[8:], f.version)
	copy(node[nodeHeader:], payload)
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
	for _, ino := range inos {
		nd := f.inodes[ino]
		// Metadata-plus-data nodes in MaxDataPerNode chunks.
		if len(nd.content) == 0 {
			if e := f.appendNode(nodeInode, encodeInodeNode(nd, ino, 0, nil)); e != errno.OK {
				return e
			}
		}
		for off := 0; off < len(nd.content); off += MaxDataPerNode {
			end := off + MaxDataPerNode
			if end > len(nd.content) {
				end = len(nd.content)
			}
			if e := f.appendNode(nodeInode, encodeInodeNode(nd, ino, int64(off), nd.content[off:end])); e != errno.OK {
				return e
			}
		}
		if nd.entries != nil {
			for _, name := range nd.order {
				if e := f.appendNode(nodeDirent, encodeDirentNode(ino, nd.entries[name], name)); e != errno.OK {
					return e
				}
			}
		}
	}
	return errno.OK
}

// inodeNodeLens lists the total lengths of the nodes logInode appends for
// an inode with this link target and a data fragment of n bytes.
func inodeNodeLens(target string, n int) []int {
	meta := nodeHeader + inodeFixed + len(target)
	if n <= MaxDataPerNode {
		return []int{meta + n}
	}
	lens := make([]int, 0, (n+MaxDataPerNode-1)/MaxDataPerNode)
	for ; n > 0; n -= MaxDataPerNode {
		lens = append(lens, meta+min(n, MaxDataPerNode))
	}
	return lens
}

// logInode persists the current metadata (and optionally a data fragment)
// of an inode.
func (f *FS) logInode(ino uint32, nd *inodeInfo, off int64, data []byte) errno.Errno {
	if len(data) <= MaxDataPerNode {
		return f.appendNode(nodeInode, encodeInodeNode(nd, ino, off, data))
	}
	for pos := 0; pos < len(data); pos += MaxDataPerNode {
		end := pos + MaxDataPerNode
		if end > len(data) {
			end = len(data)
		}
		if e := f.appendNode(nodeInode, encodeInodeNode(nd, ino, off+int64(pos), data[pos:end])); e != errno.OK {
			return e
		}
	}
	return errno.OK
}

func (f *FS) logDirent(parent, ino uint32, name string) errno.Errno {
	return f.appendNode(nodeDirent, encodeDirentNode(parent, ino, name))
}

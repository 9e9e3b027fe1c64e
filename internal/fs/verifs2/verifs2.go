// Package verifs2 implements VeriFS2, the second, full-featured version of
// the paper's model-checking-friendly RAM file system (§5).
//
// VeriFS2 adds everything VeriFS1 lacked: rename, hard links, symbolic
// links, and extended attributes. It also replaces VeriFS1's contiguous
// per-file buffers with block-list storage and enforces a configurable
// capacity limit (so ENOSPC paths are exercised). Like VeriFS1 it
// implements the checkpoint/restore API the paper proposes, which is what
// lets MCFS track its complete state without unmount/remount cycles. A
// checkpoint copies the inode table into a reused snapshot table and
// shares every inode with the live file system; an op copies an inode on
// its first write after a checkpoint or restore, and its blocks, xattrs
// or directory map only when it writes them. A restore hands the inodes,
// blocks and directory maps no open snapshot can reach to the next ops,
// which reuse them.
//
// The paper reports two bugs found in VeriFS2 while model-checking it
// against VeriFS1 (§6); both are reproducible here via options:
//
//   - WithHoleBug: a write that creates a hole in the file fails to zero
//     the file buffer in the gap (found after ~900K operations).
//   - WithSizeBug: write updates the file size only when the file grows
//     beyond its buffer capacity, not whenever it is appended to (found
//     after ~1.2M operations).
//
// Block buffers are handed out filled with a garbage pattern to simulate
// recycled malloc memory, so any missing zeroing is observable.
package verifs2

import (
	"maps"
	"slices"
	"sort"
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/spare"
	"mcfs/internal/vfs"
)

const garbageByte = 0xD7

// DefaultBlockSize is the storage block size.
const DefaultBlockSize = 4096

// DefaultMaxBlocks bounds total data storage (512 blocks = 2 MiB).
const DefaultMaxBlocks = 512

// DefaultMaxInodes bounds the number of inodes.
const DefaultMaxInodes = 4096

// Option configures a VeriFS2 instance.
type Option func(*FS)

// WithCapacity sets the data capacity in blocks and the inode limit.
func WithCapacity(maxBlocks, maxInodes int) Option {
	return func(f *FS) {
		f.maxBlocks = maxBlocks
		f.maxInodes = maxInodes
	}
}

// WithHoleBug enables the paper's first VeriFS2 bug: writes creating a
// hole do not zero the gap.
func WithHoleBug() Option {
	return func(f *FS) { f.holeBug = true }
}

// WithSizeBug enables the paper's second VeriFS2 bug: write updates the
// file size only when the file expands beyond its allocated blocks.
func WithSizeBug() Option {
	return func(f *FS) { f.sizeBug = true }
}

type inode struct {
	mode  vfs.Mode
	nlink uint32
	uid   uint32
	gid   uint32
	size  int64
	mtime time.Duration
	ctime time.Duration

	blocks  [][]byte           // block-list file storage
	target  string             // symlink target
	xattrs  map[string][]byte  // extended attributes; values are never written in place
	entries map[string]vfs.Ino // directory contents
	order   []string           // htree-like deterministic on-disk order
	parent  vfs.Ino

	// epoch is the FS epoch in which the inode became private to the
	// live file system; in any other epoch a snapshot may share it. own
	// says which of its parts are private too, while epoch is current.
	epoch uint64
	own   parts
}

// parts names the parts of an inode that a private copy still shares
// with the inode it was copied from, until an op writes them.
type parts uint8

const (
	ownBlocks parts = 1 << iota
	ownXattrs
	ownEntries // entries and order
	ownAll     = ownBlocks | ownXattrs | ownEntries
)

// slot is one entry of the inode table. The atime is kept by value beside
// the shared inode, not in it: Read and ReadDir move it on every inode
// the checker's abstraction walk visits after every op, and a write that
// lands in the slot copies no inode.
type slot struct {
	nd    *inode
	atime time.Duration
}

// private copies the parts p of nd that a snapshot may still share. nd
// must come from FS.mut. A block list is copied block by block; an xattr
// map shares its values, which are never written in place.
func (f *FS) private(nd *inode, p parts) {
	p &^= nd.own
	if p&ownBlocks != 0 && nd.blocks != nil {
		st := f.spares()
		list, _ := pop(&st.lists)
		blocks := append(list, nd.blocks...)
		for i, b := range blocks {
			blocks[i] = st.block(len(b))
			copy(blocks[i], b)
		}
		nd.blocks = blocks
	}
	if p&ownXattrs != 0 {
		nd.xattrs = maps.Clone(nd.xattrs)
	}
	if p&ownEntries != 0 && nd.entries != nil {
		st := f.spares()
		nd.entries = st.dir(nd.entries)
		order, _ := pop(&st.orders)
		nd.order = append(order, nd.order...)
	}
	nd.own |= p
}

// FS is a VeriFS2 instance. Create instances with New.
type FS struct {
	clock     *simclock.Clock
	blockSize int
	maxBlocks int
	maxInodes int

	// inodes is indexed by inode number, and a number no inode holds
	// has the zero slot. VeriFS2 never reuses a number, so the table's
	// length is the next one it hands out.
	inodes     []slot
	live       int // inodes the table holds, for StatFS and the limit
	usedBlocks int
	// epoch counts checkpoints and restores; an inode whose epoch differs
	// may be shared with a snapshot (see inode.epoch). At one per op it
	// does not wrap.
	epoch uint64

	holeBug bool
	sizeBug bool

	snapshots map[uint64]*snapshot
	// free holds the snapshots restores and discards released, their
	// tables cleared, for the next checkpoints to fill.
	free []*snapshot
	// spare holds what restores found no snapshot can reach, for the next
	// ops' copies; a collection may take it back.
	spare spare.Slot[*store]
}

type snapshot struct {
	inodes     []slot
	live       int
	usedBlocks int
	// epoch is the epoch the snapshot was taken in: it shares only
	// inodes that were private by then, so none an epoch after it made.
	epoch uint64
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.RenameFS = (*FS)(nil)
var _ vfs.LinkFS = (*FS)(nil)
var _ vfs.SymlinkFS = (*FS)(nil)
var _ vfs.XattrFS = (*FS)(nil)
var _ vfs.Checkpointer = (*FS)(nil)
var _ vfs.Typer = (*FS)(nil)

// New returns an empty VeriFS2 with its root directory allocated.
func New(clock *simclock.Clock, opts ...Option) *FS {
	f := &FS{
		clock:     clock,
		blockSize: DefaultBlockSize,
		maxBlocks: DefaultMaxBlocks,
		maxInodes: DefaultMaxInodes,
		snapshots: make(map[uint64]*snapshot),
	}
	for _, o := range opts {
		o(f)
	}
	now := f.now()
	f.inodes = []slot{{}, {&inode{
		mode:  vfs.ModeDir | 0755,
		nlink: 2,
		mtime: now, ctime: now,
		entries: make(map[string]vfs.Ino),
		parent:  1,
		own:     ownAll,
	}, now}}
	f.live = 1
	return f
}

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "verifs2" }

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// get returns ino's inode for reading, nil if there is none.
func (f *FS) get(ino vfs.Ino) *inode {
	if ino >= vfs.Ino(len(f.inodes)) {
		return nil
	}
	return f.inodes[ino].nd
}

// remove drops ino's inode from the table.
func (f *FS) remove(ino vfs.Ino) {
	f.inodes[ino] = slot{}
	f.live--
}

// mut returns ino's inode ready for writing; ino must exist. The first
// write after a checkpoint or restore copies the inode shallowly — its
// parts stay shared until private copies them — and later writes in the
// same epoch find it private. Every write to an inode goes through here.
func (f *FS) mut(ino vfs.Ino) *inode {
	s := &f.inodes[ino]
	if s.nd.epoch != f.epoch {
		c := f.spares().inode()
		*c = *s.nd
		c.epoch, c.own = f.epoch, 0
		s.nd = c
	}
	return s.nd
}

// setAtime sets ino's atime, which lives in its slot; ino must exist.
func (f *FS) setAtime(ino vfs.Ino, t time.Duration) { f.inodes[ino].atime = t }

// allocBlock returns a block filled with the garbage pattern, a recycled
// one as much as a new one.
func (f *FS) allocBlock() []byte {
	b := f.spares().block(f.blockSize)
	for i := range b {
		b[i] = garbageByte
	}
	return b
}

// Root implements vfs.FS.
func (f *FS) Root() vfs.Ino { return 1 }

// Lookup implements vfs.FS.
func (f *FS) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	dir := f.get(parent)
	if dir == nil {
		return 0, errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return 0, errno.ENOTDIR
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return 0, e
	}
	switch name {
	case ".":
		return parent, errno.OK
	case "..":
		return dir.parent, errno.OK
	}
	if ino, ok := dir.entries[name]; ok {
		return ino, errno.OK
	}
	return 0, errno.ENOENT
}

// Getattr implements vfs.FS.
func (f *FS) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return vfs.Stat{}, errno.ENOENT
	}
	size := nd.size
	if nd.mode.IsSymlink() {
		size = int64(len(nd.target))
	}
	if nd.mode.IsDir() {
		// Directory size reported as the number of entries (like XFS and
		// others that size by active entries, §3.4) times a nominal
		// dirent footprint.
		size = int64(len(nd.entries)+2) * 32
	}
	return vfs.Stat{
		Ino:    ino,
		Mode:   nd.mode,
		Nlink:  nd.nlink,
		UID:    nd.uid,
		GID:    nd.gid,
		Size:   size,
		Blocks: int64(len(nd.blocks)) * int64(f.blockSize) / 512,
		Atime:  f.inodes[ino].atime,
		Mtime:  nd.mtime,
		Ctime:  nd.ctime,
	}, errno.OK
}

// Setattr implements vfs.FS.
func (f *FS) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	if f.get(ino) == nil {
		return errno.ENOENT
	}
	nd := f.mut(ino)
	now := f.now()
	if attr.Has(vfs.AttrMode) {
		nd.mode = nd.mode&vfs.ModeMask | attr.Mode.Perm()
		nd.ctime = now
	}
	if attr.Has(vfs.AttrUID) {
		nd.uid = attr.UID
		nd.ctime = now
	}
	if attr.Has(vfs.AttrGID) {
		nd.gid = attr.GID
		nd.ctime = now
	}
	if attr.Has(vfs.AttrSize) {
		if nd.mode.IsDir() {
			return errno.EISDIR
		}
		if e := f.truncate(nd, attr.Size); e != errno.OK {
			return e
		}
		nd.mtime = now
		nd.ctime = now
	}
	if attr.Has(vfs.AttrAtime) {
		f.setAtime(ino, attr.Atime)
	}
	if attr.Has(vfs.AttrMtime) {
		nd.mtime = attr.Mtime
	}
	return errno.OK
}

// ensureBlocks grows the block list to cover size bytes, charging new
// blocks against the capacity limit. New blocks arrive as garbage. The
// list must be private (ownBlocks).
func (f *FS) ensureBlocks(nd *inode, size int64) errno.Errno {
	need := int((size + int64(f.blockSize) - 1) / int64(f.blockSize))
	for len(nd.blocks) < need {
		if f.usedBlocks >= f.maxBlocks {
			return errno.ENOSPC
		}
		if nd.blocks == nil {
			nd.blocks, _ = pop(&f.spares().lists)
		}
		nd.blocks = append(nd.blocks, f.allocBlock())
		f.usedBlocks++
	}
	return errno.OK
}

func (f *FS) releaseBlocksBeyond(nd *inode, size int64) {
	need := int((size + int64(f.blockSize) - 1) / int64(f.blockSize))
	for len(nd.blocks) > need {
		nd.blocks = nd.blocks[:len(nd.blocks)-1]
		f.usedBlocks--
	}
}

// zeroRange zeroes [from, to) in the file's blocks (bounds already
// allocated, list private).
func (f *FS) zeroRange(nd *inode, from, to int64) {
	bs := int64(f.blockSize)
	for off := from; off < to; {
		blk := off / bs
		in := off % bs
		n := bs - in
		if off+n > to {
			n = to - off
		}
		b := nd.blocks[blk]
		for i := int64(0); i < n; i++ {
			b[in+i] = 0
		}
		off += n
	}
}

func (f *FS) truncate(nd *inode, size int64) errno.Errno {
	if size < 0 {
		return errno.EINVAL
	}
	switch {
	case size <= nd.size:
		nd.size = size
		f.releaseBlocksBeyond(nd, size)
	default:
		f.private(nd, ownBlocks)
		if e := f.ensureBlocks(nd, size); e != errno.OK {
			return e
		}
		// VeriFS2 zeroes truncate extensions correctly (that was
		// VeriFS1's bug, fixed before VeriFS2 development).
		f.zeroRange(nd, nd.size, size)
		nd.size = size
	}
	return errno.OK
}

// Create implements vfs.FS.
func (f *FS) Create(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	ino, _, e := f.makeNode(parent, name, vfs.ModeReg|mode.Perm(), uid, gid)
	return ino, e
}

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	ino, _, e := f.makeNode(parent, name, vfs.ModeDir|mode.Perm(), uid, gid)
	return ino, e
}

func (f *FS) makeNode(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, *inode, errno.Errno) {
	dir := f.get(parent)
	if dir == nil {
		return 0, nil, errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return 0, nil, errno.ENOTDIR
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return 0, nil, e
	}
	if name == "." || name == ".." {
		return 0, nil, errno.EEXIST
	}
	if _, ok := dir.entries[name]; ok {
		return 0, nil, errno.EEXIST
	}
	if f.live >= f.maxInodes {
		return 0, nil, errno.ENOSPC
	}
	now := f.now()
	nd := f.spares().inode()
	*nd = inode{
		mode: mode,
		uid:  uid, gid: gid,
		mtime: now, ctime: now,
		epoch: f.epoch, own: ownAll,
	}
	dir = f.mut(parent)
	if mode.IsDir() {
		nd.nlink = 2
		nd.entries = f.spares().dir(nil)
		nd.parent = parent
		dir.nlink++
	} else {
		nd.nlink = 1
	}
	ino := vfs.Ino(len(f.inodes))
	f.inodes = append(f.inodes, slot{nd, now})
	f.live++
	f.addEntry(dir, name, ino)
	dir.mtime = now
	dir.ctime = now
	return ino, nd, errno.OK
}

// addEntry and removeEntry edit a directory that mut returned.
func (f *FS) addEntry(dir *inode, name string, ino vfs.Ino) {
	f.private(dir, ownEntries)
	dir.entries[name] = ino
	dir.order = append(dir.order, name)
}

func (f *FS) removeEntry(dir *inode, name string) {
	f.private(dir, ownEntries)
	delete(dir.entries, name)
	for i, n := range dir.order {
		if n == name {
			dir.order = append(dir.order[:i], dir.order[i+1:]...)
			break
		}
	}
}

// dropLink drops one link to ino, and the inode with its last one.
func (f *FS) dropLink(ino vfs.Ino) {
	if nd := f.get(ino); nd.nlink == 1 {
		f.usedBlocks -= len(nd.blocks)
		f.remove(ino)
		return
	}
	nd := f.mut(ino)
	nd.nlink--
	nd.ctime = f.now()
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(parent vfs.Ino, name string) errno.Errno {
	dir := f.get(parent)
	if dir == nil {
		return errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return errno.ENOTDIR
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return e
	}
	ino, ok := dir.entries[name]
	if !ok {
		return errno.ENOENT
	}
	child := f.get(ino)
	if child == nil {
		return errno.EIO
	}
	if child.mode.IsDir() {
		return errno.EISDIR
	}
	dir = f.mut(parent)
	f.removeEntry(dir, name)
	f.dropLink(ino)
	now := f.now()
	dir.mtime = now
	dir.ctime = now
	return errno.OK
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(parent vfs.Ino, name string) errno.Errno {
	dir := f.get(parent)
	if dir == nil {
		return errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return errno.ENOTDIR
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return e
	}
	if name == "." {
		return errno.EINVAL
	}
	if name == ".." {
		return errno.ENOTEMPTY
	}
	ino, ok := dir.entries[name]
	if !ok {
		return errno.ENOENT
	}
	child := f.get(ino)
	if child == nil {
		return errno.EIO
	}
	if !child.mode.IsDir() {
		return errno.ENOTDIR
	}
	if len(child.entries) > 0 {
		return errno.ENOTEMPTY
	}
	dir = f.mut(parent)
	f.removeEntry(dir, name)
	f.remove(ino)
	dir.nlink--
	now := f.now()
	dir.mtime = now
	dir.ctime = now
	return errno.OK
}

// Read implements vfs.FS.
func (f *FS) Read(ino vfs.Ino, off int64, n int, dst []byte) ([]byte, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return dst, errno.ENOENT
	}
	if nd.mode.IsDir() {
		return dst, errno.EISDIR
	}
	if !nd.mode.IsRegular() {
		return dst, errno.EINVAL
	}
	if off < 0 || n < 0 {
		return dst, errno.EINVAL
	}
	f.setAtime(ino, f.now())
	if off >= nd.size {
		return dst, errno.OK
	}
	end := off + int64(n)
	if end > nd.size {
		end = nd.size
	}
	dst = slices.Grow(dst, int(end-off)) // one growth for the whole read
	bs := int64(f.blockSize)
	for pos := off; pos < end; {
		blk := pos / bs
		in := pos % bs
		cnt := bs - in
		if pos+cnt > end {
			cnt = end - pos
		}
		if blk < int64(len(nd.blocks)) {
			dst = append(dst, nd.blocks[blk][in:in+cnt]...)
		} else {
			// Blocks past the list (shouldn't happen, size <= allocated)
			// read as zeros.
			dst = append(dst, make([]byte, cnt)...)
		}
		pos += cnt
	}
	return dst, errno.OK
}

// Write implements vfs.FS.
func (f *FS) Write(ino vfs.Ino, off int64, data []byte) (int, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return 0, errno.ENOENT
	}
	if nd.mode.IsDir() {
		return 0, errno.EISDIR
	}
	if !nd.mode.IsRegular() {
		return 0, errno.EINVAL
	}
	if off < 0 {
		return 0, errno.EINVAL
	}
	nd = f.mut(ino)
	f.private(nd, ownBlocks)
	end := off + int64(len(data))
	grewBeyondCapacity := end > int64(len(nd.blocks))*int64(f.blockSize)
	if e := f.ensureBlocks(nd, end); e != errno.OK {
		return 0, e
	}
	if off > nd.size {
		// The write creates a hole: the gap [size, off) must read as
		// zeros. The paper's first VeriFS2 bug skips this zeroing, so the
		// hole exposes recycled buffer contents (§6, found after ~900K
		// operations).
		if !f.holeBug {
			f.zeroRange(nd, nd.size, off)
		}
	}
	// Copy the payload into the block list.
	bs := int64(f.blockSize)
	for pos := off; pos < end; {
		blk := pos / bs
		in := pos % bs
		cnt := bs - in
		if pos+cnt > end {
			cnt = end - pos
		}
		copy(nd.blocks[blk][in:in+cnt], data[pos-off:pos-off+cnt])
		pos += cnt
	}
	if end > nd.size {
		if f.sizeBug {
			// The paper's second VeriFS2 bug: the size is updated only
			// when the file expands beyond its buffer capacity, not on
			// every append, leaving the file shorter than it should be
			// (§6, found after ~1.2M operations).
			if grewBeyondCapacity {
				nd.size = end
			}
		} else {
			nd.size = end
		}
	}
	now := f.now()
	nd.mtime = now
	nd.ctime = now
	return len(data), errno.OK
}

// ReadDir implements vfs.FS. VeriFS2 returns entries in its internal
// htree-like order (insertion order here), which differs from other file
// systems — the checker must sort (§3.4).
func (f *FS) ReadDir(ino vfs.Ino, dst []vfs.DirEntry) ([]vfs.DirEntry, errno.Errno) {
	dir := f.get(ino)
	if dir == nil {
		return dst, errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return dst, errno.ENOTDIR
	}
	f.setAtime(ino, f.now())
	out := append(dst,
		vfs.DirEntry{Name: ".", Ino: ino, Mode: vfs.ModeDir},
		vfs.DirEntry{Name: "..", Ino: dir.parent, Mode: vfs.ModeDir},
	)
	for _, name := range dir.order {
		cIno := dir.entries[name]
		mode := vfs.Mode(0)
		if child := f.get(cIno); child != nil {
			mode = child.mode & vfs.ModeMask
		}
		out = append(out, vfs.DirEntry{Name: name, Ino: cIno, Mode: mode})
	}
	return out, errno.OK
}

// StatFS implements vfs.FS.
func (f *FS) StatFS() (vfs.StatFS, errno.Errno) {
	return vfs.StatFS{
		BlockSize:   int64(f.blockSize),
		TotalBlocks: int64(f.maxBlocks),
		FreeBlocks:  int64(f.maxBlocks - f.usedBlocks),
		TotalInodes: int64(f.maxInodes),
		FreeInodes:  int64(f.maxInodes - f.live),
	}, errno.OK
}

// Sync implements vfs.FS; VeriFS2 is memory-only.
func (f *FS) Sync() errno.Errno { return errno.OK }

// Rename implements vfs.RenameFS with POSIX semantics.
func (f *FS) Rename(oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string) errno.Errno {
	odir := f.get(oldParent)
	ndir := f.get(newParent)
	if odir == nil || ndir == nil {
		return errno.ENOENT
	}
	if !odir.mode.IsDir() || !ndir.mode.IsDir() {
		return errno.ENOTDIR
	}
	if e := vfs.ValidName(oldName); e != errno.OK {
		return e
	}
	if e := vfs.ValidName(newName); e != errno.OK {
		return e
	}
	if oldName == "." || oldName == ".." || newName == "." || newName == ".." {
		return errno.EINVAL
	}
	srcIno, ok := odir.entries[oldName]
	if !ok {
		return errno.ENOENT
	}
	src := f.get(srcIno)
	if src == nil {
		return errno.EIO
	}
	// Renaming a directory into its own subtree is EINVAL.
	if src.mode.IsDir() {
		for p := newParent; ; {
			if p == srcIno {
				return errno.EINVAL
			}
			pd := f.get(p)
			if pd == nil || p == pd.parent {
				break
			}
			p = pd.parent
		}
	}
	if dstIno, exists := ndir.entries[newName]; exists {
		if dstIno == srcIno {
			return errno.OK // same file: POSIX no-op
		}
		dst := f.get(dstIno)
		if dst == nil {
			return errno.EIO
		}
		switch {
		case src.mode.IsDir() && !dst.mode.IsDir():
			return errno.ENOTDIR
		case !src.mode.IsDir() && dst.mode.IsDir():
			return errno.EISDIR
		case dst.mode.IsDir() && len(dst.entries) > 0:
			return errno.ENOTEMPTY
		}
		// Replace the destination.
		ndir = f.mut(newParent)
		f.removeEntry(ndir, newName)
		if dst.mode.IsDir() {
			f.remove(dstIno)
			ndir.nlink--
		} else {
			f.dropLink(dstIno)
		}
	}
	// odir and ndir may be one inode; mut hands both the same private copy.
	odir = f.mut(oldParent)
	ndir = f.mut(newParent)
	src = f.mut(srcIno)
	f.removeEntry(odir, oldName)
	f.addEntry(ndir, newName, srcIno)
	if src.mode.IsDir() && oldParent != newParent {
		src.parent = newParent
		odir.nlink--
		ndir.nlink++
	}
	now := f.now()
	odir.mtime, odir.ctime = now, now
	ndir.mtime, ndir.ctime = now, now
	src.ctime = now
	return errno.OK
}

// Link implements vfs.LinkFS.
func (f *FS) Link(ino vfs.Ino, newParent vfs.Ino, newName string) errno.Errno {
	nd := f.get(ino)
	if nd == nil {
		return errno.ENOENT
	}
	if nd.mode.IsDir() {
		return errno.EPERM
	}
	dir := f.get(newParent)
	if dir == nil {
		return errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return errno.ENOTDIR
	}
	if e := vfs.ValidName(newName); e != errno.OK {
		return e
	}
	if newName == "." || newName == ".." {
		return errno.EEXIST
	}
	if _, ok := dir.entries[newName]; ok {
		return errno.EEXIST
	}
	dir, nd = f.mut(newParent), f.mut(ino)
	f.addEntry(dir, newName, ino)
	nd.nlink++
	now := f.now()
	nd.ctime = now
	dir.mtime, dir.ctime = now, now
	return errno.OK
}

// Symlink implements vfs.SymlinkFS.
func (f *FS) Symlink(target string, parent vfs.Ino, name string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	ino, nd, e := f.makeNode(parent, name, vfs.ModeLink|0777, uid, gid)
	if e != errno.OK {
		return 0, e
	}
	nd.target = target
	return ino, errno.OK
}

// Readlink implements vfs.SymlinkFS.
func (f *FS) Readlink(ino vfs.Ino) (string, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return "", errno.ENOENT
	}
	if !nd.mode.IsSymlink() {
		return "", errno.EINVAL
	}
	return nd.target, errno.OK
}

// SetXattr implements vfs.XattrFS.
func (f *FS) SetXattr(ino vfs.Ino, name string, value []byte) errno.Errno {
	nd := f.get(ino)
	if nd == nil {
		return errno.ENOENT
	}
	if name == "" || len(name) > vfs.NameMax {
		return errno.ERANGE
	}
	nd = f.mut(ino)
	f.private(nd, ownXattrs)
	if nd.xattrs == nil {
		nd.xattrs = make(map[string][]byte)
	}
	v := make([]byte, len(value))
	copy(v, value)
	nd.xattrs[name] = v
	nd.ctime = f.now()
	return errno.OK
}

// GetXattr implements vfs.XattrFS.
func (f *FS) GetXattr(ino vfs.Ino, name string) ([]byte, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return nil, errno.ENOENT
	}
	v, ok := nd.xattrs[name]
	if !ok {
		return nil, errno.ENODATA
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, errno.OK
}

// ListXattr implements vfs.XattrFS; names come back sorted.
func (f *FS) ListXattr(ino vfs.Ino) ([]string, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return nil, errno.ENOENT
	}
	names := make([]string, 0, len(nd.xattrs))
	for k := range nd.xattrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, errno.OK
}

// RemoveXattr implements vfs.XattrFS.
func (f *FS) RemoveXattr(ino vfs.Ino, name string) errno.Errno {
	nd := f.get(ino)
	if nd == nil {
		return errno.ENOENT
	}
	if _, ok := nd.xattrs[name]; !ok {
		return errno.ENODATA
	}
	nd = f.mut(ino)
	f.private(nd, ownXattrs)
	delete(nd.xattrs, name)
	nd.ctime = f.now()
	return errno.OK
}

// CheckpointState implements vfs.Checkpointer: the snapshot is a copy of
// the inode table, into a table an earlier snapshot released, which
// shares every inode with the live file system; and a new epoch starts,
// so that an op copies an inode before its first write (mut).
func (f *FS) CheckpointState(key uint64) errno.Errno {
	var snap *snapshot
	if n := len(f.free); n > 0 {
		snap, f.free = f.free[n-1], f.free[:n-1]
	} else {
		snap = new(snapshot)
	}
	snap.inodes = append(snap.inodes, f.inodes...)
	snap.live, snap.usedBlocks, snap.epoch = f.live, f.usedBlocks, f.epoch
	f.snapshots[key] = snap
	f.epoch++
	return errno.OK
}

// RestoreState implements vfs.Checkpointer. The snapshot is consumed, so
// the live file system swaps tables with it instead of copying it back,
// and the snapshot goes to the free list with the old live table,
// cleared. Before that, every inode no snapshot still open can reach
// goes to the spare store with the parts it owns (see bound). Other
// snapshots may share the inodes the live file system adopts, so a new
// epoch starts.
func (f *FS) RestoreState(key uint64) errno.Errno {
	snap, ok := f.snapshots[key]
	if !ok {
		return errno.ENOENT
	}
	delete(f.snapshots, key)
	f.recycle(f.bound(snap.epoch))
	f.inodes, snap.inodes = snap.inodes, f.inodes
	f.live, f.usedBlocks = snap.live, snap.usedBlocks
	f.release(snap)
	f.epoch++
	return errno.OK
}

// DiscardState implements vfs.Checkpointer: it drops the snapshot stored
// under key without touching the live state. Its table goes to the free
// list, but nothing the table names goes to the spare store: the live
// file system and other snapshots may share all of it.
func (f *FS) DiscardState(key uint64) errno.Errno {
	snap, ok := f.snapshots[key]
	if !ok {
		return errno.ENOENT
	}
	delete(f.snapshots, key)
	f.release(snap)
	return errno.OK
}

// release clears snap's table and puts snap on the free list.
func (f *FS) release(snap *snapshot) {
	clear(snap.inodes)
	snap.inodes = snap.inodes[:0]
	f.free = append(f.free, snap)
}

// bound returns the newest epoch that the snapshot taken in epoch e,
// being restored, or any snapshot still open was taken in. An inode
// copied or created in epoch m, and the parts it made private then,
// exist only from epoch m on, so only a snapshot taken in m or later can
// share them: past the bound, none that is left can, whatever order the
// pool's keys are restored and discarded in.
func (f *FS) bound(e uint64) uint64 {
	for _, snap := range f.snapshots {
		e = max(e, snap.epoch)
	}
	return e
}

// recycle gives the spare store every inode of the live table that an
// epoch after bound copied or created, with each part its own bits mark
// private: the blocks and the block list, and the directory map and
// order. An xattr map is left to the collector.
func (f *FS) recycle(bound uint64) {
	st := f.spares()
	for _, s := range f.inodes {
		nd := s.nd
		if nd == nil || nd.epoch <= bound {
			continue
		}
		if nd.own&ownBlocks != 0 && cap(nd.blocks) > 0 {
			st.blocks = append(st.blocks, nd.blocks...)
			clear(nd.blocks[:cap(nd.blocks)])
			st.lists = append(st.lists, nd.blocks[:0])
		}
		if nd.own&ownEntries != 0 && nd.entries != nil {
			clear(nd.entries)
			st.dirs = append(st.dirs, nd.entries)
			if cap(nd.order) > 0 {
				clear(nd.order[:cap(nd.order)])
				st.orders = append(st.orders, nd.order[:0])
			}
		}
		*nd = inode{}
		st.inodes = append(st.inodes, nd)
	}
}

// SnapshotCount reports how many snapshots the pool currently holds.
func (f *FS) SnapshotCount() int { return len(f.snapshots) }

// StateBytes estimates the live state size in bytes for the memory model.
func (f *FS) StateBytes() int64 {
	total := int64(0)
	for _, s := range f.inodes {
		nd := s.nd
		if nd == nil {
			continue
		}
		total += 128
		total += int64(len(nd.blocks)) * int64(f.blockSize)
		total += int64(len(nd.target))
		for k, v := range nd.xattrs {
			total += int64(len(k) + len(v))
		}
		for name := range nd.entries {
			total += int64(len(name)) + 16
		}
	}
	return total
}

// store holds what restores found no snapshot can reach: inodes, blocks,
// block lists, and directory maps and orders, each emptied.
type store struct {
	inodes []*inode
	blocks [][]byte
	lists  [][][]byte
	dirs   []map[string]vfs.Ino
	orders [][]string
}

// spares returns the spare store, a new one if a collection has taken
// the last one back.
func (f *FS) spares() *store {
	st, ok := f.spare.Take()
	if !ok {
		st = new(store)
	}
	f.spare.Put(st)
	return st
}

// pop removes and returns the last element of s; ok is false if s is
// empty.
func pop[T any](s *[]T) (v T, ok bool) {
	if len(*s) == 0 {
		return v, false
	}
	n := len(*s) - 1
	v = (*s)[n]
	*s = (*s)[:n]
	return v, true
}

// inode returns a spare inode, or a new one.
func (st *store) inode() *inode {
	if nd, ok := pop(&st.inodes); ok {
		return nd
	}
	return new(inode)
}

// block returns a spare block, or a new one of n bytes; its contents
// are unspecified.
func (st *store) block(n int) []byte {
	if b, ok := pop(&st.blocks); ok {
		return b
	}
	return make([]byte, n)
}

// dir returns a directory map holding what from holds: a spare one, or
// a new one.
func (st *store) dir(from map[string]vfs.Ino) map[string]vfs.Ino {
	if m, ok := pop(&st.dirs); ok {
		maps.Copy(m, from)
		return m
	}
	if from == nil {
		return make(map[string]vfs.Ino)
	}
	return maps.Clone(from)
}

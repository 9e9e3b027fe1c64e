// Package verifs1 implements VeriFS1, the first version of the paper's
// model-checking-friendly RAM file system (§5).
//
// VeriFS1 is deliberately simple, exactly as described in the paper: a
// fixed-length inode array with one contiguous memory buffer per inode
// holding the file data, a limited operation set — no access(), rename(),
// symbolic or hard links, and no extended attributes — and no limit on the
// amount of data stored. Its purpose is to demonstrate the checkpoint/
// restore API: CheckpointState saves the full file system state into a
// snapshot pool under a 64-bit key; RestoreState brings it back and
// discards the snapshot — so it moves the snapshot's inodes and buffers
// into the live file system rather than copying them a second time. A
// snapshot copies the inode array into a reused table and shares every
// data buffer and entry list with the live file system until an op
// writes it in place. A restore hands the buffers and lists no open
// snapshot can reach to the next ops, which reuse them. The array is
// fixed in length as the paper has it, but its memory grows as slots are
// first used.
//
// Buffers are handed out filled with a garbage pattern, simulating
// malloc(3) returning recycled memory; every correct code path must
// explicitly zero bytes that POSIX requires to read as zero. The paper's
// first VeriFS1 bug — truncate failing to clear newly allocated space when
// expanding a file — is reproducible via the TruncateNoZero option.
package verifs1

import (
	"math"
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/spare"
	"mcfs/internal/vfs"
)

// garbageByte fills freshly allocated buffers, standing in for whatever a
// recycled malloc chunk happens to contain.
const garbageByte = 0xDB

// DefaultMaxInodes is the length of the fixed inode array.
const DefaultMaxInodes = 1024

// Option configures a VeriFS1 instance.
type Option func(*FS)

// WithMaxInodes sets the fixed inode-array length.
func WithMaxInodes(n int) Option {
	return func(f *FS) { f.maxInodes = n }
}

// WithTruncateBug enables the paper's first VeriFS1 bug: truncate does not
// zero newly allocated space when expanding a file, so reads of the
// extension return buffer garbage instead of zeros (§6, found after ~9K
// operations of checking VeriFS1 against Ext4).
func WithTruncateBug() Option {
	return func(f *FS) { f.truncateNoZero = true }
}

type dirent struct {
	name string
	ino  vfs.Ino
}

type inode struct {
	used  bool
	mode  vfs.Mode
	nlink uint32
	uid   uint32
	gid   uint32
	// epoch is the FS epoch in which data and entries became private to
	// the live array; in any other epoch a snapshot may share them. It
	// sits in the padding before size, so the array does not grow.
	epoch uint32
	size  int64
	data  []byte // contiguous buffer; len(data) is capacity, size is EOF
	atime time.Duration
	mtime time.Duration
	ctime time.Duration

	// entries holds directory contents in insertion order, excluding
	// "." and "..", which ReadDir synthesizes. Nil for regular files.
	entries []dirent
	parent  vfs.Ino // for ".."; meaningful only for directories
}

// FS is a VeriFS1 instance. The zero value is not usable; call New.
type FS struct {
	clock     *simclock.Clock
	maxInodes int
	// inodes holds the fixed array up to one past the highest slot used
	// since the state was last restored: every slot past it is the zero
	// inode, so it is kept only once an op first uses it (allocInode),
	// and checkpoints and state sizing stop there. Growing it moves every
	// inode: a *inode does not outlive an allocation.
	inodes []inode
	// epoch counts checkpoints and restores; an inode whose epoch differs
	// shares its buffers with a snapshot (see inode.epoch). It never
	// reads 0, the mark nextEpoch gives every inode when it wraps.
	epoch uint32

	truncateNoZero bool

	snapshots map[uint64]*snapshot
	// free holds the snapshots restores and discards released, their
	// tables cleared, for the next checkpoints to fill.
	free []*snapshot
	// spare holds the buffers and entry lists restores found no snapshot
	// can reach, for the next ops' copies; a collection may take it back.
	spare spare.Slot[*store]
}

type snapshot struct {
	inodes []inode // the live array, as far as it was used
	// epoch is the epoch the snapshot was taken in: it shares only
	// buffers that were private by then, so none an epoch after it made.
	epoch uint32
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.Checkpointer = (*FS)(nil)
var _ vfs.Typer = (*FS)(nil)

// New returns an empty VeriFS1 with its root directory allocated.
func New(clock *simclock.Clock, opts ...Option) *FS {
	f := &FS{
		clock:     clock,
		maxInodes: DefaultMaxInodes,
		epoch:     1,
		snapshots: make(map[uint64]*snapshot),
	}
	for _, o := range opts {
		o(f)
	}
	now := f.now()
	f.inodes = []inode{{}, { // index 0 unused
		used:  true,
		mode:  vfs.ModeDir | 0755,
		nlink: 2,
		atime: now, mtime: now, ctime: now,
		parent: 1,
	}}
	return f
}

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "verifs1" }

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// alloc returns a buffer of length n filled with the garbage pattern, a
// recycled one as much as a new one.
func (f *FS) alloc(n int64) []byte {
	b := f.spares().buf(int(n))
	for i := range b {
		b[i] = garbageByte
	}
	return b
}

func (f *FS) get(ino vfs.Ino) *inode {
	i := int(ino)
	if i <= 0 || i >= len(f.inodes) || !f.inodes[i].used {
		return nil
	}
	return &f.inodes[i]
}

// own makes nd's data buffer and entry list private to the live array
// before an op writes into them: the first write after a checkpoint or
// restore copies them, later ones in the same epoch find them private.
// A file has only data and a directory only entries, so one mark covers
// both.
func (f *FS) own(nd *inode) {
	if nd.epoch == f.epoch {
		return
	}
	st := f.spares()
	if nd.data != nil {
		b := st.buf(len(nd.data))
		copy(b, nd.data)
		nd.data = b
	}
	if nd.entries != nil {
		nd.entries = append(st.list(), nd.entries...)
	}
	nd.epoch = f.epoch
}

// nextEpoch starts a new epoch, after which every buffer the live array
// holds counts as shared. When the counter wraps it first marks every
// inode and snapshot, live or in the pool, with 0, which no epoch reads.
func (f *FS) nextEpoch() {
	if f.epoch == math.MaxUint32 {
		for i := range f.inodes {
			f.inodes[i].epoch = 0
		}
		for _, snap := range f.snapshots {
			for i := range snap.inodes {
				snap.inodes[i].epoch = 0
			}
			snap.epoch = 0
		}
		f.epoch = 0
	}
	f.epoch++
}

// allocInode takes the lowest free slot, growing the array into its
// first unused one if none below is free. Growing moves every inode, so
// a caller gets its other *inodes again after it.
func (f *FS) allocInode() (vfs.Ino, *inode) {
	i := 1
	for i < len(f.inodes) && f.inodes[i].used {
		i++
	}
	if i > f.maxInodes {
		return 0, nil
	}
	if i == len(f.inodes) {
		f.inodes = append(f.inodes, inode{})
	}
	f.inodes[i] = inode{used: true, epoch: f.epoch}
	return vfs.Ino(i), &f.inodes[i]
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
	for _, de := range dir.entries {
		if de.name == name {
			return de.ino, errno.OK
		}
	}
	return 0, errno.ENOENT
}

// Getattr implements vfs.FS.
func (f *FS) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return vfs.Stat{}, errno.ENOENT
	}
	return vfs.Stat{
		Ino:    ino,
		Mode:   nd.mode,
		Nlink:  nd.nlink,
		UID:    nd.uid,
		GID:    nd.gid,
		Size:   nd.size,
		Blocks: (nd.size + 511) / 512,
		Atime:  nd.atime,
		Mtime:  nd.mtime,
		Ctime:  nd.ctime,
	}, errno.OK
}

// Setattr implements vfs.FS.
func (f *FS) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	nd := f.get(ino)
	if nd == nil {
		return errno.ENOENT
	}
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
		nd.atime = attr.Atime
	}
	if attr.Has(vfs.AttrMtime) {
		nd.mtime = attr.Mtime
	}
	return errno.OK
}

func (f *FS) truncate(nd *inode, size int64) errno.Errno {
	if size < 0 {
		return errno.EINVAL
	}
	switch {
	case size <= nd.size:
		nd.size = size
	default:
		if int64(len(nd.data)) < size {
			// Grow the contiguous buffer: new allocation arrives full of
			// garbage, copy the old content over.
			nb := f.alloc(size)
			copy(nb, nd.data[:nd.size])
			nd.data, nd.epoch = nb, f.epoch
		}
		if !f.truncateNoZero {
			f.own(nd)
			// Correct behavior: the newly exposed region reads as zeros.
			for i := nd.size; i < size; i++ {
				nd.data[i] = 0
			}
		}
		// Buggy behavior (the paper's first VeriFS1 bug): leave whatever
		// the allocator handed us in the extension.
		nd.size = size
	}
	return errno.OK
}

// Create implements vfs.FS.
func (f *FS) Create(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	return f.makeNode(parent, name, vfs.ModeReg|mode.Perm(), uid, gid)
}

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	return f.makeNode(parent, name, vfs.ModeDir|mode.Perm(), uid, gid)
}

func (f *FS) makeNode(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
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
	if name == "." || name == ".." {
		return 0, errno.EEXIST
	}
	for _, de := range dir.entries {
		if de.name == name {
			return 0, errno.EEXIST
		}
	}
	ino, nd := f.allocInode()
	if nd == nil {
		return 0, errno.ENOSPC
	}
	dir = f.get(parent) // the array may have grown
	now := f.now()
	nd.mode = mode
	nd.uid = uid
	nd.gid = gid
	nd.atime, nd.mtime, nd.ctime = now, now, now
	if mode.IsDir() {
		nd.nlink = 2
		nd.parent = parent
		dir.nlink++
	} else {
		nd.nlink = 1
	}
	f.own(dir)
	dir.entries = append(dir.entries, dirent{name: name, ino: ino})
	dir.mtime = now
	dir.ctime = now
	return ino, errno.OK
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
	for i, de := range dir.entries {
		if de.name != name {
			continue
		}
		child := f.get(de.ino)
		if child == nil {
			return errno.EIO // dangling entry: internal corruption
		}
		if child.mode.IsDir() {
			return errno.EISDIR
		}
		child.nlink--
		if child.nlink == 0 {
			*child = inode{}
		} else {
			child.ctime = f.now()
		}
		f.own(dir)
		dir.entries = append(dir.entries[:i], dir.entries[i+1:]...)
		dir.mtime = f.now()
		dir.ctime = dir.mtime
		return errno.OK
	}
	return errno.ENOENT
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
	for i, de := range dir.entries {
		if de.name != name {
			continue
		}
		child := f.get(de.ino)
		if child == nil {
			return errno.EIO
		}
		if !child.mode.IsDir() {
			return errno.ENOTDIR
		}
		if len(child.entries) > 0 {
			return errno.ENOTEMPTY
		}
		*child = inode{}
		f.own(dir)
		dir.entries = append(dir.entries[:i], dir.entries[i+1:]...)
		dir.nlink--
		dir.mtime = f.now()
		dir.ctime = dir.mtime
		return errno.OK
	}
	return errno.ENOENT
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
	if off < 0 || n < 0 {
		return dst, errno.EINVAL
	}
	nd.atime = f.now()
	if off >= nd.size {
		return dst, errno.OK
	}
	end := off + int64(n)
	if end > nd.size {
		end = nd.size
	}
	return append(dst, nd.data[off:end]...), errno.OK
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
	if off < 0 {
		return 0, errno.EINVAL
	}
	end := off + int64(len(data))
	if end > int64(len(nd.data)) {
		// Grow the contiguous buffer with headroom so repeated appends
		// are not quadratic (malloc would be just as smart).
		newCap := end
		if doubled := int64(len(nd.data)) * 2; doubled > newCap {
			newCap = doubled
		}
		nb := f.alloc(newCap)
		copy(nb, nd.data[:nd.size])
		nd.data, nd.epoch = nb, f.epoch
	}
	f.own(nd)
	if off > nd.size {
		// Writing past EOF creates a hole, which must read as zeros.
		// VeriFS1 gets this right; VeriFS2's first bug gets it wrong.
		for i := nd.size; i < off; i++ {
			nd.data[i] = 0
		}
	}
	copy(nd.data[off:end], data)
	if end > nd.size {
		nd.size = end
	}
	now := f.now()
	nd.mtime = now
	nd.ctime = now
	return len(data), errno.OK
}

// ReadDir implements vfs.FS. Entries come back in insertion order —
// implementation-defined, per §3.4 the checker must sort before comparing.
func (f *FS) ReadDir(ino vfs.Ino, dst []vfs.DirEntry) ([]vfs.DirEntry, errno.Errno) {
	dir := f.get(ino)
	if dir == nil {
		return dst, errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return dst, errno.ENOTDIR
	}
	dir.atime = f.now()
	out := append(dst,
		vfs.DirEntry{Name: ".", Ino: ino, Mode: vfs.ModeDir},
		vfs.DirEntry{Name: "..", Ino: dir.parent, Mode: vfs.ModeDir},
	)
	for _, de := range dir.entries {
		child := f.get(de.ino)
		mode := vfs.Mode(0)
		if child != nil {
			mode = child.mode & vfs.ModeMask
		}
		out = append(out, vfs.DirEntry{Name: de.name, Ino: de.ino, Mode: mode})
	}
	return out, errno.OK
}

// StatFS implements vfs.FS. VeriFS1 does not limit data capacity (§5), so
// free blocks are reported as a large constant; inode counts reflect the
// fixed array.
func (f *FS) StatFS() (vfs.StatFS, errno.Errno) {
	used := int64(0)
	for i := 1; i < len(f.inodes); i++ {
		if f.inodes[i].used {
			used++
		}
	}
	return vfs.StatFS{
		BlockSize:   4096,
		TotalBlocks: 1 << 30, // "unlimited"
		FreeBlocks:  1 << 30,
		TotalInodes: int64(f.maxInodes),
		FreeInodes:  int64(f.maxInodes) - used,
	}, errno.OK
}

// Sync implements vfs.FS; VeriFS1 is memory-only, so there is nothing to
// flush.
func (f *FS) Sync() errno.Errno { return errno.OK }

// CheckpointState implements vfs.Checkpointer: it locks the file system
// (trivially, since the kernel serializes operations), copies the inode
// array — as far as it has ever been used, into a table an earlier
// snapshot released — into the snapshot pool under key, and starts a new
// epoch. The snapshot shares every data buffer and entry list with the
// live array; an op copies one before its first in-place write (own).
func (f *FS) CheckpointState(key uint64) errno.Errno {
	var snap *snapshot
	if n := len(f.free); n > 0 {
		snap, f.free = f.free[n-1], f.free[:n-1]
	} else {
		snap = new(snapshot)
	}
	snap.inodes = append(snap.inodes, f.inodes...)
	snap.epoch = f.epoch
	f.snapshots[key] = snap
	f.nextEpoch()
	return errno.OK
}

// RestoreState implements vfs.Checkpointer: it replaces the live inode
// array with the snapshot stored under key and discards the snapshot
// (the FUSE server, not the file system, tells the kernel to drop its
// caches). The snapshot is consumed, so its inodes — data buffers
// and directory lists with them — are moved into the live array, not
// cloned; slots used since the checkpoint go back to zero, and the
// snapshot's table, cleared, to the free list. Before that, the buffers
// and lists no snapshot still open can reach go to the spare store (see
// bound). Other snapshots may share the buffers the live array adopts,
// so a new epoch starts.
func (f *FS) RestoreState(key uint64) errno.Errno {
	snap, ok := f.snapshots[key]
	if !ok {
		return errno.ENOENT
	}
	delete(f.snapshots, key)
	f.recycle(f.bound(snap.epoch))
	used := len(f.inodes)
	f.inodes = append(f.inodes[:0], snap.inodes...)
	if n := len(f.inodes); n < used {
		clear(f.inodes[n:used])
	}
	f.release(snap)
	f.nextEpoch()
	return errno.OK
}

// DiscardState implements vfs.Checkpointer: it drops the snapshot stored
// under key without touching the live state. Its table goes to the free
// list, but no buffer it names goes to the spare store: the live array
// and other snapshots may share all of them.
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
// being restored, or any snapshot still open was taken in. A buffer
// made private in epoch m exists only from epoch m on, so only a
// snapshot taken in m or later can share it: past the bound, none that
// is left can, whatever order the pool's keys are restored and
// discarded in.
func (f *FS) bound(e uint32) uint32 {
	for _, snap := range f.snapshots {
		e = max(e, snap.epoch)
	}
	return e
}

// recycle gives the spare store the data buffer and entry list of every
// live slot that an epoch after bound made them private to (own, or a
// grown buffer).
func (f *FS) recycle(bound uint32) {
	st := f.spares()
	for i := range f.inodes {
		nd := &f.inodes[i]
		if !nd.used || nd.epoch <= bound {
			continue
		}
		if cap(nd.data) > 0 {
			st.bufs = append(st.bufs, nd.data)
		}
		if cap(nd.entries) > 0 {
			clear(nd.entries[:cap(nd.entries)])
			st.lists = append(st.lists, nd.entries[:0])
		}
	}
}

// SnapshotCount reports how many snapshots the pool currently holds.
func (f *FS) SnapshotCount() int { return len(f.snapshots) }

// StateBytes estimates the live state size in bytes (the fixed inode
// array, its unused slots included, plus data buffers); the memory model
// uses it to size concrete states.
func (f *FS) StateBytes() int64 {
	total := int64(f.maxInodes+1) * 96 // rough per-inode struct footprint
	for i := range f.inodes {
		if f.inodes[i].used {
			total += int64(len(f.inodes[i].data))
			for _, de := range f.inodes[i].entries {
				total += int64(len(de.name)) + 16
			}
		}
	}
	return total
}

// store holds the data buffers and entry lists restores found no
// snapshot can reach.
type store struct {
	bufs  [][]byte
	lists [][]dirent
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

// buf returns a buffer of n bytes with unspecified contents: the last
// spare one that can hold n, or a new one.
func (st *store) buf(n int) []byte {
	for i := len(st.bufs) - 1; i >= 0; i-- {
		if b := st.bufs[i]; cap(b) >= n {
			last := len(st.bufs) - 1
			st.bufs[i], st.bufs[last] = st.bufs[last], nil
			st.bufs = st.bufs[:last]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// list returns a spare entry list, emptied, or nil.
func (st *store) list() []dirent {
	n := len(st.lists)
	if n == 0 {
		return nil
	}
	l := st.lists[n-1]
	st.lists = st.lists[:n-1]
	return l
}

// Package verifs1 implements VeriFS1, the first version of the paper's
// model-checking-friendly RAM file system (§5).
//
// VeriFS1 is deliberately simple, exactly as described in the paper: a
// fixed-length inode array with one contiguous memory buffer per inode
// holding the file data, a limited operation set — no access(), rename(),
// symbolic or hard links, and no extended attributes — and no limit on the
// amount of data stored. Its purpose is to demonstrate the checkpoint/
// restore API: CheckpointState copies the full file system state into a
// snapshot pool under a 64-bit key; RestoreState brings it back and
// discards the snapshot — so it moves the snapshot's inodes and buffers
// into the live file system rather than copying them a second time.
//
// Buffers are handed out filled with a garbage pattern, simulating
// malloc(3) returning recycled memory; every correct code path must
// explicitly zero bytes that POSIX requires to read as zero. The paper's
// first VeriFS1 bug — truncate failing to clear newly allocated space when
// expanding a file — is reproducible via the TruncateNoZero option.
package verifs1

import (
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
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
	inodes    []inode
	// hwm is one past the highest inode slot used since the state was
	// last restored: every slot from hwm on is the zero inode, so
	// checkpoints and state sizing stop there instead of walking the
	// whole fixed array.
	hwm int

	truncateNoZero bool

	snapshots map[uint64]*snapshot

	// onRestore, if set, runs after every successful RestoreState. The
	// FUSE glue registers kernel cache invalidation here; leaving it
	// unset reproduces the paper's second VeriFS1 bug (stale kernel
	// dentries after rollback).
	onRestore func()
}

type snapshot struct {
	inodes []inode // the live array up to its high-water mark
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.Checkpointer = (*FS)(nil)
var _ vfs.Discarder = (*FS)(nil)
var _ vfs.Typer = (*FS)(nil)

// New returns an empty VeriFS1 with its root directory allocated.
func New(clock *simclock.Clock, opts ...Option) *FS {
	f := &FS{
		clock:     clock,
		maxInodes: DefaultMaxInodes,
		snapshots: make(map[uint64]*snapshot),
	}
	for _, o := range opts {
		o(f)
	}
	f.inodes = make([]inode, f.maxInodes+1) // index 0 unused
	now := f.now()
	f.inodes[1] = inode{
		used:  true,
		mode:  vfs.ModeDir | 0755,
		nlink: 2,
		atime: now, mtime: now, ctime: now,
		parent: 1,
	}
	f.hwm = 2
	return f
}

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "verifs1" }

// SetOnRestore registers a hook run after every successful RestoreState.
func (f *FS) SetOnRestore(fn func()) { f.onRestore = fn }

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// alloc returns a buffer of length n filled with the garbage pattern.
func alloc(n int64) []byte {
	b := make([]byte, n)
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

func (f *FS) allocInode() (vfs.Ino, *inode) {
	for i := 1; i < len(f.inodes); i++ {
		if !f.inodes[i].used {
			f.inodes[i] = inode{used: true}
			f.hwm = max(f.hwm, i+1)
			return vfs.Ino(i), &f.inodes[i]
		}
	}
	return 0, nil
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
	if attr.Mode != nil {
		nd.mode = nd.mode&vfs.ModeMask | attr.Mode.Perm()
		nd.ctime = now
	}
	if attr.UID != nil {
		nd.uid = *attr.UID
		nd.ctime = now
	}
	if attr.GID != nil {
		nd.gid = *attr.GID
		nd.ctime = now
	}
	if attr.Size != nil {
		if nd.mode.IsDir() {
			return errno.EISDIR
		}
		if e := f.truncate(nd, *attr.Size); e != errno.OK {
			return e
		}
		nd.mtime = now
		nd.ctime = now
	}
	if attr.Atime != nil {
		nd.atime = *attr.Atime
	}
	if attr.Mtime != nil {
		nd.mtime = *attr.Mtime
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
			nb := alloc(size)
			copy(nb, nd.data[:nd.size])
			nd.data = nb
		}
		if !f.truncateNoZero {
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
		dir.entries = append(dir.entries[:i], dir.entries[i+1:]...)
		dir.nlink--
		dir.mtime = f.now()
		dir.ctime = dir.mtime
		return errno.OK
	}
	return errno.ENOENT
}

// Read implements vfs.FS.
func (f *FS) Read(ino vfs.Ino, off int64, n int) ([]byte, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return nil, errno.ENOENT
	}
	if nd.mode.IsDir() {
		return nil, errno.EISDIR
	}
	if off < 0 || n < 0 {
		return nil, errno.EINVAL
	}
	nd.atime = f.now()
	if off >= nd.size {
		return nil, errno.OK
	}
	end := off + int64(n)
	if end > nd.size {
		end = nd.size
	}
	out := make([]byte, end-off)
	copy(out, nd.data[off:end])
	return out, errno.OK
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
		nb := alloc(newCap)
		copy(nb, nd.data[:nd.size])
		nd.data = nb
	}
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
func (f *FS) ReadDir(ino vfs.Ino) ([]vfs.DirEntry, errno.Errno) {
	dir := f.get(ino)
	if dir == nil {
		return nil, errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return nil, errno.ENOTDIR
	}
	dir.atime = f.now()
	out := make([]vfs.DirEntry, 0, len(dir.entries)+2)
	out = append(out,
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
// (trivially, since the kernel serializes operations), deep-copies the
// inode array — as far as it has ever been used — into the snapshot pool
// under key, and returns.
func (f *FS) CheckpointState(key uint64) errno.Errno {
	f.snapshots[key] = &snapshot{inodes: cloneInodes(f.inodes[:f.hwm])}
	return errno.OK
}

// RestoreState implements vfs.Checkpointer: it replaces the live inode
// array with the snapshot stored under key, discards the snapshot, and
// notifies the kernel to invalidate its caches (via the registered
// onRestore hook). The snapshot is consumed, so its inodes — data buffers
// and directory lists with them — are moved into the live array, not
// cloned; slots used since the checkpoint go back to zero.
func (f *FS) RestoreState(key uint64) errno.Errno {
	snap, ok := f.snapshots[key]
	if !ok {
		return errno.ENOENT
	}
	n := copy(f.inodes, snap.inodes)
	if n < f.hwm {
		clear(f.inodes[n:f.hwm])
	}
	f.hwm = n
	delete(f.snapshots, key)
	if f.onRestore != nil {
		f.onRestore()
	}
	return errno.OK
}

// DiscardState implements vfs.Discarder: it drops the snapshot stored
// under key without touching the live state.
func (f *FS) DiscardState(key uint64) errno.Errno {
	if _, ok := f.snapshots[key]; !ok {
		return errno.ENOENT
	}
	delete(f.snapshots, key)
	return errno.OK
}

// SnapshotCount reports how many snapshots the pool currently holds.
func (f *FS) SnapshotCount() int { return len(f.snapshots) }

// StateBytes estimates the live state size in bytes (inode array plus
// data buffers); the memory model uses it to size concrete states.
func (f *FS) StateBytes() int64 {
	total := int64(len(f.inodes)) * 96 // rough per-inode struct footprint
	for i := range f.inodes[:f.hwm] {
		if f.inodes[i].used {
			total += int64(len(f.inodes[i].data))
			for _, de := range f.inodes[i].entries {
				total += int64(len(de.name)) + 16
			}
		}
	}
	return total
}

func cloneInodes(src []inode) []inode {
	dst := make([]inode, len(src))
	copy(dst, src)
	for i := range dst {
		if dst[i].data != nil {
			nb := make([]byte, len(dst[i].data))
			copy(nb, dst[i].data)
			dst[i].data = nb
		}
		if dst[i].entries != nil {
			ne := make([]dirent, len(dst[i].entries))
			copy(ne, dst[i].entries)
			dst[i].entries = ne
		}
	}
	return dst
}

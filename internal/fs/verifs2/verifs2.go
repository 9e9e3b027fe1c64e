// Package verifs2 implements VeriFS2, the second, full-featured version of
// the paper's model-checking-friendly RAM file system (§5).
//
// VeriFS2 adds everything VeriFS1 lacked: rename, hard links, symbolic
// links, and extended attributes. It also replaces VeriFS1's contiguous
// per-file buffers with block-list storage and enforces a configurable
// capacity limit (so ENOSPC paths are exercised). Like VeriFS1 it
// implements the checkpoint/restore API the paper proposes, which is what
// lets MCFS track its complete state without unmount/remount cycles.
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
	"sort"
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
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
	atime time.Duration
	mtime time.Duration
	ctime time.Duration

	blocks [][]byte          // block-list file storage
	target string            // symlink target
	xattrs map[string][]byte // extended attributes

	entries map[string]vfs.Ino // directory contents
	order   []string           // htree-like deterministic on-disk order
	parent  vfs.Ino
}

func (nd *inode) clone() *inode {
	c := *nd
	c.blocks = make([][]byte, len(nd.blocks))
	for i, b := range nd.blocks {
		nb := make([]byte, len(b))
		copy(nb, b)
		c.blocks[i] = nb
	}
	if nd.xattrs != nil {
		c.xattrs = make(map[string][]byte, len(nd.xattrs))
		for k, v := range nd.xattrs {
			nv := make([]byte, len(v))
			copy(nv, v)
			c.xattrs[k] = nv
		}
	}
	if nd.entries != nil {
		c.entries = make(map[string]vfs.Ino, len(nd.entries))
		for k, v := range nd.entries {
			c.entries[k] = v
		}
		c.order = append([]string(nil), nd.order...)
	}
	return &c
}

// FS is a VeriFS2 instance. Create instances with New.
type FS struct {
	clock     *simclock.Clock
	blockSize int
	maxBlocks int
	maxInodes int

	inodes     map[vfs.Ino]*inode
	nextIno    vfs.Ino
	usedBlocks int

	holeBug bool
	sizeBug bool

	snapshots map[uint64]*snapshot
	onRestore func()
}

type snapshot struct {
	inodes     map[vfs.Ino]*inode
	nextIno    vfs.Ino
	usedBlocks int
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.RenameFS = (*FS)(nil)
var _ vfs.LinkFS = (*FS)(nil)
var _ vfs.SymlinkFS = (*FS)(nil)
var _ vfs.XattrFS = (*FS)(nil)
var _ vfs.Checkpointer = (*FS)(nil)
var _ vfs.Discarder = (*FS)(nil)
var _ vfs.Typer = (*FS)(nil)

// New returns an empty VeriFS2 with its root directory allocated.
func New(clock *simclock.Clock, opts ...Option) *FS {
	f := &FS{
		clock:     clock,
		blockSize: DefaultBlockSize,
		maxBlocks: DefaultMaxBlocks,
		maxInodes: DefaultMaxInodes,
		inodes:    make(map[vfs.Ino]*inode),
		nextIno:   2,
		snapshots: make(map[uint64]*snapshot),
	}
	for _, o := range opts {
		o(f)
	}
	now := f.now()
	f.inodes[1] = &inode{
		mode:  vfs.ModeDir | 0755,
		nlink: 2,
		atime: now, mtime: now, ctime: now,
		entries: make(map[string]vfs.Ino),
		parent:  1,
	}
	return f
}

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "verifs2" }

// SetOnRestore registers a hook run after every successful RestoreState.
func (f *FS) SetOnRestore(fn func()) { f.onRestore = fn }

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

func (f *FS) get(ino vfs.Ino) *inode { return f.inodes[ino] }

func allocBlock(n int) []byte {
	b := make([]byte, n)
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

// ensureBlocks grows the block list to cover size bytes, charging new
// blocks against the capacity limit. New blocks arrive as garbage.
func (f *FS) ensureBlocks(nd *inode, size int64) errno.Errno {
	need := int((size + int64(f.blockSize) - 1) / int64(f.blockSize))
	for len(nd.blocks) < need {
		if f.usedBlocks >= f.maxBlocks {
			return errno.ENOSPC
		}
		nd.blocks = append(nd.blocks, allocBlock(f.blockSize))
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
// allocated).
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
	if len(f.inodes) >= f.maxInodes {
		return 0, nil, errno.ENOSPC
	}
	now := f.now()
	nd := &inode{
		mode: mode,
		uid:  uid, gid: gid,
		atime: now, mtime: now, ctime: now,
	}
	if mode.IsDir() {
		nd.nlink = 2
		nd.entries = make(map[string]vfs.Ino)
		nd.parent = parent
		dir.nlink++
	} else {
		nd.nlink = 1
	}
	ino := f.nextIno
	f.nextIno++
	f.inodes[ino] = nd
	f.addEntry(dir, name, ino)
	dir.mtime = now
	dir.ctime = now
	return ino, nd, errno.OK
}

func (f *FS) addEntry(dir *inode, name string, ino vfs.Ino) {
	dir.entries[name] = ino
	dir.order = append(dir.order, name)
}

func (f *FS) removeEntry(dir *inode, name string) {
	delete(dir.entries, name)
	for i, n := range dir.order {
		if n == name {
			dir.order = append(dir.order[:i], dir.order[i+1:]...)
			break
		}
	}
}

func (f *FS) dropLink(ino vfs.Ino, nd *inode) {
	nd.nlink--
	if nd.nlink == 0 {
		f.usedBlocks -= len(nd.blocks)
		delete(f.inodes, ino)
	} else {
		nd.ctime = f.now()
	}
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
	f.removeEntry(dir, name)
	f.dropLink(ino, child)
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
	f.removeEntry(dir, name)
	delete(f.inodes, ino)
	dir.nlink--
	now := f.now()
	dir.mtime = now
	dir.ctime = now
	return errno.OK
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
	if !nd.mode.IsRegular() {
		return nil, errno.EINVAL
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
	bs := int64(f.blockSize)
	for pos := off; pos < end; {
		blk := pos / bs
		in := pos % bs
		cnt := bs - in
		if pos+cnt > end {
			cnt = end - pos
		}
		if blk < int64(len(nd.blocks)) {
			copy(out[pos-off:], nd.blocks[blk][in:in+cnt])
		}
		// Blocks past the list (shouldn't happen, size <= allocated) read
		// as zeros by way of the fresh out buffer.
		pos += cnt
	}
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
	if !nd.mode.IsRegular() {
		return 0, errno.EINVAL
	}
	if off < 0 {
		return 0, errno.EINVAL
	}
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
func (f *FS) ReadDir(ino vfs.Ino) ([]vfs.DirEntry, errno.Errno) {
	dir := f.get(ino)
	if dir == nil {
		return nil, errno.ENOENT
	}
	if !dir.mode.IsDir() {
		return nil, errno.ENOTDIR
	}
	dir.atime = f.now()
	out := make([]vfs.DirEntry, 0, len(dir.order)+2)
	out = append(out,
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
		FreeInodes:  int64(f.maxInodes - len(f.inodes)),
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
		f.removeEntry(ndir, newName)
		if dst.mode.IsDir() {
			delete(f.inodes, dstIno)
			ndir.nlink--
		} else {
			f.dropLink(dstIno, dst)
		}
	}
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
	delete(nd.xattrs, name)
	nd.ctime = f.now()
	return errno.OK
}

// CheckpointState implements vfs.Checkpointer.
func (f *FS) CheckpointState(key uint64) errno.Errno {
	snap := &snapshot{
		inodes:     make(map[vfs.Ino]*inode, len(f.inodes)),
		nextIno:    f.nextIno,
		usedBlocks: f.usedBlocks,
	}
	for ino, nd := range f.inodes {
		snap.inodes[ino] = nd.clone()
	}
	f.snapshots[key] = snap
	return errno.OK
}

// RestoreState implements vfs.Checkpointer. The snapshot is consumed, so
// the live file system adopts its inodes — block lists, xattrs and
// directory maps with them — instead of cloning them a second time.
func (f *FS) RestoreState(key uint64) errno.Errno {
	snap, ok := f.snapshots[key]
	if !ok {
		return errno.ENOENT
	}
	f.inodes = snap.inodes
	f.nextIno = snap.nextIno
	f.usedBlocks = snap.usedBlocks
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

// StateBytes estimates the live state size in bytes for the memory model.
func (f *FS) StateBytes() int64 {
	total := int64(0)
	for _, nd := range f.inodes {
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

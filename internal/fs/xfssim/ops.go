package xfssim

import (
	"encoding/binary"
	"slices"
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/vfs"
)

// Directory content handling. Entries are packed (ino, nameLen, name)
// records across the directory's data blocks, treated as one contiguous
// byte stream of length size. Unlike extfs, the directory size is the
// exact byte count of live entries: deletions rewrite and shrink the
// stream, and Getattr reports that byte count (§3.4's "sizes based on the
// number of active entries").

type rawDirent struct {
	ino  uint32
	name string
}

func (f *FS) readDirStream(ci *cachedInode) ([]byte, errno.Errno) {
	if ci.size > uint64(ci.blocks())*BlockSize {
		return nil, errno.EIO // the inode claims more than it maps
	}
	out := make([]byte, 0, ci.size)
	n := (int64(ci.size) + BlockSize - 1) / BlockSize
	for i := int64(0); i < n; i++ {
		blk := ci.nthBlock(i)
		if blk == 0 {
			return nil, errno.EIO
		}
		buf := make([]byte, BlockSize)
		if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
			return nil, errno.EIO
		}
		out = append(out, buf...)
	}
	return out[:ci.size], errno.OK
}

func (f *FS) writeDirStream(ci *cachedInode, stream []byte) errno.Errno {
	if e := f.ensureBlocks(ci, int64(len(stream))); e != errno.OK {
		return e
	}
	n := (int64(len(stream)) + BlockSize - 1) / BlockSize
	for i := int64(0); i < n; i++ {
		blk := ci.nthBlock(i)
		if blk == 0 {
			return errno.EIO
		}
		buf := make([]byte, BlockSize)
		end := (i + 1) * BlockSize
		if end > int64(len(stream)) {
			end = int64(len(stream))
		}
		copy(buf, stream[i*BlockSize:end])
		if err := f.dev.WriteAt(buf, int64(blk)*BlockSize); err != nil {
			return errno.EIO
		}
	}
	f.truncateBlocks(ci, n)
	ci.size = uint64(len(stream))
	ci.dirty = true
	return errno.OK
}

func parseDirStream(stream []byte) []rawDirent {
	le := binary.LittleEndian
	var out []rawDirent
	pos := 0
	for pos+direntHdr <= len(stream) {
		ino := le.Uint32(stream[pos:])
		nameLen := int(le.Uint16(stream[pos+4:]))
		if ino == 0 || pos+direntHdr+nameLen > len(stream) {
			break
		}
		out = append(out, rawDirent{ino: ino, name: string(stream[pos+direntHdr : pos+direntHdr+nameLen])})
		pos += direntHdr + nameLen
	}
	return out
}

func encodeDirStream(entries []rawDirent) []byte {
	total := 0
	for _, de := range entries {
		total += direntLen(de.name)
	}
	out := make([]byte, total)
	pos := 0
	for _, de := range entries {
		pos += putDirent(out[pos:], de.ino, de.name)
	}
	return out
}

func (f *FS) dirEntries(ci *cachedInode) ([]rawDirent, errno.Errno) {
	stream, e := f.readDirStream(ci)
	if e != errno.OK {
		return nil, e
	}
	return parseDirStream(stream), errno.OK
}

func (f *FS) dirInode(ino vfs.Ino) (*cachedInode, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return nil, errno.ENOENT
	}
	if !vfs.Mode(ci.mode).IsDir() {
		return nil, errno.ENOTDIR
	}
	return ci, errno.OK
}

// Root implements vfs.FS.
func (f *FS) Root() vfs.Ino { return RootIno }

// Lookup implements vfs.FS.
func (f *FS) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	dir, e := f.dirInode(parent)
	if e != errno.OK {
		return 0, e
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return 0, e
	}
	entries, e := f.dirEntries(dir)
	if e != errno.OK {
		return 0, e
	}
	for _, de := range entries {
		if de.name == name {
			return vfs.Ino(de.ino), errno.OK
		}
	}
	return 0, errno.ENOENT
}

// Getattr implements vfs.FS.
func (f *FS) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return vfs.Stat{}, errno.ENOENT
	}
	return vfs.Stat{
		Ino:    ino,
		Mode:   vfs.Mode(ci.mode),
		Nlink:  ci.nlink,
		UID:    ci.uid,
		GID:    ci.gid,
		Size:   int64(ci.size),
		Blocks: ci.blocks() * (BlockSize / 512),
		Atime:  time.Duration(ci.atime),
		Mtime:  time.Duration(ci.mtime),
		Ctime:  time.Duration(ci.ctime),
	}, errno.OK
}

// Setattr implements vfs.FS.
func (f *FS) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return errno.ENOENT
	}
	now := int64(f.now())
	if attr.Has(vfs.AttrMode) {
		ci.mode = ci.mode&uint32(vfs.ModeMask) | uint32(attr.Mode.Perm())
		ci.ctime = now
		ci.dirty = true
	}
	if attr.Has(vfs.AttrUID) {
		ci.uid = attr.UID
		ci.ctime = now
		ci.dirty = true
	}
	if attr.Has(vfs.AttrGID) {
		ci.gid = attr.GID
		ci.ctime = now
		ci.dirty = true
	}
	if attr.Has(vfs.AttrSize) {
		if vfs.Mode(ci.mode).IsDir() {
			return errno.EISDIR
		}
		if !vfs.Mode(ci.mode).IsRegular() {
			return errno.EINVAL
		}
		if e := f.truncateFile(ci, attr.Size); e != errno.OK {
			return e
		}
		ci.mtime = now
		ci.ctime = now
		ci.dirty = true
	}
	if attr.Has(vfs.AttrAtime) {
		ci.atime = int64(attr.Atime)
		ci.dirty = true
	}
	if attr.Has(vfs.AttrMtime) {
		ci.mtime = int64(attr.Mtime)
		ci.dirty = true
	}
	return errno.OK
}

func (f *FS) truncateFile(ci *cachedInode, size int64) errno.Errno {
	if size < 0 {
		return errno.EINVAL
	}
	old := int64(ci.size)
	if size < old {
		keep := (size + BlockSize - 1) / BlockSize
		f.truncateBlocks(ci, keep)
		if size%BlockSize != 0 {
			blk := ci.nthBlock(size / BlockSize)
			if blk != 0 {
				buf := make([]byte, BlockSize)
				if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
					return errno.EIO
				}
				for i := size % BlockSize; i < BlockSize; i++ {
					buf[i] = 0
				}
				if err := f.dev.WriteAt(buf, int64(blk)*BlockSize); err != nil {
					return errno.EIO
				}
			}
		}
	}
	// Growing truncate leaves a tail hole: unmapped blocks read zeros.
	ci.size = uint64(size)
	ci.dirty = true
	return errno.OK
}

func (f *FS) makeNode(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, *cachedInode, errno.Errno) {
	dir, e := f.dirInode(parent)
	if e != errno.OK {
		return 0, nil, e
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return 0, nil, e
	}
	if name == "." || name == ".." {
		return 0, nil, errno.EEXIST
	}
	entries, e := f.dirEntries(dir)
	if e != errno.OK {
		return 0, nil, e
	}
	for _, de := range entries {
		if de.name == name {
			return 0, nil, errno.EEXIST
		}
	}
	ino, ci, e := f.allocInodeNum()
	if e != errno.OK {
		return 0, nil, e
	}
	now := int64(f.now())
	ci.mode = uint32(mode)
	ci.uid = uid
	ci.gid = gid
	ci.atime, ci.mtime, ci.ctime = now, now, now
	if mode.IsDir() {
		ci.nlink = 2
		stream := encodeDirStream([]rawDirent{{ino, "."}, {uint32(parent), ".."}})
		if e := f.writeDirStream(ci, stream); e != errno.OK {
			f.freeInodeNum(ino)
			return 0, nil, e
		}
	} else {
		ci.nlink = 1
	}
	entries = append(entries, rawDirent{ino: ino, name: name})
	if e := f.writeDirStream(dir, encodeDirStream(entries)); e != errno.OK {
		if mode.IsDir() {
			f.truncateBlocks(ci, 0)
		}
		f.freeInodeNum(ino)
		return 0, nil, e
	}
	if mode.IsDir() {
		dir.nlink++
	}
	dir.mtime, dir.ctime = now, now
	dir.dirty = true
	return vfs.Ino(ino), ci, errno.OK
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

func (f *FS) removeName(dir *cachedInode, name string) errno.Errno {
	entries, e := f.dirEntries(dir)
	if e != errno.OK {
		return e
	}
	for i, de := range entries {
		if de.name == name {
			entries = append(entries[:i], entries[i+1:]...)
			return f.writeDirStream(dir, encodeDirStream(entries))
		}
	}
	return errno.ENOENT
}

func (f *FS) dropLink(ino uint32, ci *cachedInode) {
	ci.nlink--
	if ci.nlink == 0 {
		f.truncateBlocks(ci, 0)
		f.freeInodeNum(ino)
		return
	}
	ci.ctime = int64(f.now())
	ci.dirty = true
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(parent vfs.Ino, name string) errno.Errno {
	dir, e := f.dirInode(parent)
	if e != errno.OK {
		return e
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return e
	}
	ino, e := f.Lookup(parent, name)
	if e != errno.OK {
		return e
	}
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return errno.EIO
	}
	if vfs.Mode(ci.mode).IsDir() {
		return errno.EISDIR
	}
	if e := f.removeName(dir, name); e != errno.OK {
		return e
	}
	f.dropLink(uint32(ino), ci)
	now := int64(f.now())
	dir.mtime, dir.ctime = now, now
	dir.dirty = true
	return errno.OK
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(parent vfs.Ino, name string) errno.Errno {
	dir, e := f.dirInode(parent)
	if e != errno.OK {
		return e
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
	ino, e := f.Lookup(parent, name)
	if e != errno.OK {
		return e
	}
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return errno.EIO
	}
	if !vfs.Mode(ci.mode).IsDir() {
		return errno.ENOTDIR
	}
	entries, e := f.dirEntries(ci)
	if e != errno.OK {
		return e
	}
	for _, de := range entries {
		if de.name != "." && de.name != ".." {
			return errno.ENOTEMPTY
		}
	}
	if e := f.removeName(dir, name); e != errno.OK {
		return e
	}
	f.truncateBlocks(ci, 0)
	f.freeInodeNum(uint32(ino))
	dir.nlink--
	now := int64(f.now())
	dir.mtime, dir.ctime = now, now
	dir.dirty = true
	return errno.OK
}

// Read implements vfs.FS.
func (f *FS) Read(ino vfs.Ino, off int64, n int, dst []byte) ([]byte, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return dst, errno.ENOENT
	}
	if vfs.Mode(ci.mode).IsDir() {
		return dst, errno.EISDIR
	}
	if !vfs.Mode(ci.mode).IsRegular() {
		return dst, errno.EINVAL
	}
	if off < 0 || n < 0 {
		return dst, errno.EINVAL
	}
	ci.atime = int64(f.now())
	ci.dirty = true
	size := int64(ci.size)
	if off >= size {
		return dst, errno.OK
	}
	end := off + int64(n)
	if end > size {
		end = size
	}
	dst = slices.Grow(dst, int(end-off)) // one growth for the whole read
	start := len(dst)
	for pos := off; pos < end; {
		idx := pos / BlockSize
		in := pos % BlockSize
		cnt := int64(BlockSize) - in
		if pos+cnt > end {
			cnt = end - pos
		}
		if blk := ci.nthBlock(idx); blk == 0 {
			dst = append(dst, make([]byte, cnt)...) // a hole
		} else {
			buf := f.scratch[:]
			if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
				return dst[:start], errno.EIO
			}
			dst = append(dst, buf[in:in+cnt]...)
		}
		pos += cnt
	}
	return dst, errno.OK
}

// Write implements vfs.FS.
func (f *FS) Write(ino vfs.Ino, off int64, data []byte) (int, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return 0, errno.ENOENT
	}
	if vfs.Mode(ci.mode).IsDir() {
		return 0, errno.EISDIR
	}
	if !vfs.Mode(ci.mode).IsRegular() {
		return 0, errno.EINVAL
	}
	if off < 0 {
		return 0, errno.EINVAL
	}
	end := off + int64(len(data))
	if e := f.ensureBlocks(ci, end); e != errno.OK {
		return 0, e
	}
	for pos := off; pos < end; {
		idx := pos / BlockSize
		in := pos % BlockSize
		cnt := int64(BlockSize) - in
		if pos+cnt > end {
			cnt = end - pos
		}
		blk := ci.nthBlock(idx)
		if blk == 0 {
			return 0, errno.EIO
		}
		if in == 0 && cnt == BlockSize {
			if err := f.dev.WriteAt(data[pos-off:pos-off+BlockSize], int64(blk)*BlockSize); err != nil {
				return 0, errno.EIO
			}
		} else {
			buf := make([]byte, BlockSize)
			if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
				return 0, errno.EIO
			}
			copy(buf[in:], data[pos-off:pos-off+cnt])
			if err := f.dev.WriteAt(buf, int64(blk)*BlockSize); err != nil {
				return 0, errno.EIO
			}
		}
		pos += cnt
	}
	now := int64(f.now())
	if end > int64(ci.size) {
		ci.size = uint64(end)
	}
	ci.mtime, ci.ctime = now, now
	ci.dirty = true
	return len(data), errno.OK
}

// ReadDir implements vfs.FS; entries come back in on-disk stream order.
func (f *FS) ReadDir(ino vfs.Ino, dst []vfs.DirEntry) ([]vfs.DirEntry, errno.Errno) {
	ci, e := f.dirInode(ino)
	if e != errno.OK {
		return dst, e
	}
	ci.atime = int64(f.now())
	ci.dirty = true
	entries, e := f.dirEntries(ci)
	if e != errno.OK {
		return dst, e
	}
	out := dst
	for _, de := range entries {
		mode := vfs.Mode(0)
		if child := f.getInode(de.ino); child != nil {
			mode = vfs.Mode(child.mode) & vfs.ModeMask
		}
		out = append(out, vfs.DirEntry{Name: de.name, Ino: vfs.Ino(de.ino), Mode: mode})
	}
	return out, errno.OK
}

// StatFS implements vfs.FS.
func (f *FS) StatFS() (vfs.StatFS, errno.Errno) {
	return vfs.StatFS{
		BlockSize:   BlockSize,
		TotalBlocks: int64(f.sb.blocksTotal - f.layout.firstData),
		FreeBlocks:  int64(f.sb.freeBlocks),
		TotalInodes: int64(f.sb.inodesTotal),
		FreeInodes:  int64(f.sb.freeInodes),
	}, errno.OK
}

// Rename implements vfs.RenameFS.
func (f *FS) Rename(oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string) errno.Errno {
	odir, e := f.dirInode(oldParent)
	if e != errno.OK {
		return e
	}
	ndir, e := f.dirInode(newParent)
	if e != errno.OK {
		return e
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
	srcIno, e := f.Lookup(oldParent, oldName)
	if e != errno.OK {
		return e
	}
	src := f.getInode(uint32(srcIno))
	if src == nil {
		return errno.EIO
	}
	srcIsDir := vfs.Mode(src.mode).IsDir()
	if srcIsDir {
		p := uint32(newParent)
		for {
			if p == uint32(srcIno) {
				return errno.EINVAL
			}
			if p == RootIno {
				break
			}
			pi := f.getInode(p)
			if pi == nil {
				break
			}
			up, e2 := f.Lookup(vfs.Ino(p), "..")
			if e2 != errno.OK || uint32(up) == p {
				break
			}
			p = uint32(up)
		}
	}
	if dstIno, e2 := f.Lookup(newParent, newName); e2 == errno.OK {
		if dstIno == srcIno {
			return errno.OK
		}
		dst := f.getInode(uint32(dstIno))
		if dst == nil {
			return errno.EIO
		}
		dstIsDir := vfs.Mode(dst.mode).IsDir()
		switch {
		case srcIsDir && !dstIsDir:
			return errno.ENOTDIR
		case !srcIsDir && dstIsDir:
			return errno.EISDIR
		}
		if dstIsDir {
			dents, e3 := f.dirEntries(dst)
			if e3 != errno.OK {
				return e3
			}
			for _, de := range dents {
				if de.name != "." && de.name != ".." {
					return errno.ENOTEMPTY
				}
			}
			f.truncateBlocks(dst, 0)
			f.freeInodeNum(uint32(dstIno))
			ndir.nlink--
		} else {
			f.dropLink(uint32(dstIno), dst)
		}
		if e3 := f.removeName(ndir, newName); e3 != errno.OK {
			return e3
		}
	} else if e2 != errno.ENOENT {
		return e2
	}
	if e := f.removeName(odir, oldName); e != errno.OK {
		return e
	}
	entries, e := f.dirEntries(ndir)
	if e != errno.OK {
		return e
	}
	entries = append(entries, rawDirent{ino: uint32(srcIno), name: newName})
	if e := f.writeDirStream(ndir, encodeDirStream(entries)); e != errno.OK {
		return e
	}
	if srcIsDir && oldParent != newParent {
		dents, e2 := f.dirEntries(src)
		if e2 != errno.OK {
			return e2
		}
		for i := range dents {
			if dents[i].name == ".." {
				dents[i].ino = uint32(newParent)
			}
		}
		if e2 := f.writeDirStream(src, encodeDirStream(dents)); e2 != errno.OK {
			return e2
		}
		odir.nlink--
		ndir.nlink++
	}
	now := int64(f.now())
	odir.mtime, odir.ctime = now, now
	ndir.mtime, ndir.ctime = now, now
	src.ctime = now
	odir.dirty, ndir.dirty, src.dirty = true, true, true
	return errno.OK
}

// Link implements vfs.LinkFS.
func (f *FS) Link(ino vfs.Ino, newParent vfs.Ino, newName string) errno.Errno {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return errno.ENOENT
	}
	if vfs.Mode(ci.mode).IsDir() {
		return errno.EPERM
	}
	dir, e := f.dirInode(newParent)
	if e != errno.OK {
		return e
	}
	if e := vfs.ValidName(newName); e != errno.OK {
		return e
	}
	if newName == "." || newName == ".." {
		return errno.EEXIST
	}
	if _, e2 := f.Lookup(newParent, newName); e2 == errno.OK {
		return errno.EEXIST
	} else if e2 != errno.ENOENT {
		return e2
	}
	entries, e := f.dirEntries(dir)
	if e != errno.OK {
		return e
	}
	entries = append(entries, rawDirent{ino: uint32(ino), name: newName})
	if e := f.writeDirStream(dir, encodeDirStream(entries)); e != errno.OK {
		return e
	}
	ci.nlink++
	now := int64(f.now())
	ci.ctime = now
	dir.mtime, dir.ctime = now, now
	ci.dirty, dir.dirty = true, true
	return errno.OK
}

// Symlink implements vfs.SymlinkFS; the target lives in the link's data
// blocks.
func (f *FS) Symlink(target string, parent vfs.Ino, name string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	if len(target) >= BlockSize {
		return 0, errno.ENAMETOOLONG
	}
	ino, ci, e := f.makeNode(parent, name, vfs.ModeLink|0777, uid, gid)
	if e != errno.OK {
		return 0, e
	}
	if e := f.ensureBlocks(ci, int64(len(target))); e != errno.OK {
		_ = f.removeName(mustDir(f, parent), name)
		f.freeInodeNum(uint32(ino))
		return 0, e
	}
	blk := ci.nthBlock(0)
	buf := make([]byte, BlockSize)
	copy(buf, target)
	if err := f.dev.WriteAt(buf, int64(blk)*BlockSize); err != nil {
		return 0, errno.EIO
	}
	ci.size = uint64(len(target))
	ci.dirty = true
	return ino, errno.OK
}

func mustDir(f *FS, ino vfs.Ino) *cachedInode {
	ci, _ := f.dirInode(ino)
	return ci
}

// Readlink implements vfs.SymlinkFS.
func (f *FS) Readlink(ino vfs.Ino) (string, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return "", errno.ENOENT
	}
	if !vfs.Mode(ci.mode).IsSymlink() {
		return "", errno.EINVAL
	}
	if ci.size == 0 {
		return "", errno.OK
	}
	if ci.size >= BlockSize {
		return "", errno.EIO // Symlink stores less than a block
	}
	blk := ci.nthBlock(0)
	buf := make([]byte, BlockSize)
	if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
		return "", errno.EIO
	}
	return string(buf[:ci.size]), errno.OK
}

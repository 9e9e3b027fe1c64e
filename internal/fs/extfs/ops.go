package extfs

import (
	"slices"

	"mcfs/internal/errno"
	"mcfs/internal/vfs"
)

// Root implements vfs.FS.
func (f *FS) Root() vfs.Ino { return RootIno }

func (f *FS) dirInode(ino vfs.Ino) (*cachedInode, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return nil, errno.ENOENT
	}
	if !ci.vfsMode().IsDir() {
		return nil, errno.ENOTDIR
	}
	return ci, errno.OK
}

// Lookup implements vfs.FS.
func (f *FS) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	dir, e := f.dirInode(parent)
	if e != errno.OK {
		return 0, e
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return 0, e
	}
	ino, _, found, e := f.findEntry(dir, name)
	if e != errno.OK {
		return 0, e
	}
	if !found {
		return 0, errno.ENOENT
	}
	return vfs.Ino(ino), errno.OK
}

// Getattr implements vfs.FS.
func (f *FS) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return vfs.Stat{}, errno.ENOENT
	}
	return ci.stat(ino), errno.OK
}

// Setattr implements vfs.FS.
func (f *FS) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return errno.ENOENT
	}
	now := f.now()
	if attr.Has(vfs.AttrMode) {
		ci.mode = ci.mode&uint32(vfs.ModeMask) | uint32(attr.Mode.Perm())
		ci.ctime = int64(now)
		f.markDirty(ci)
	}
	if attr.Has(vfs.AttrUID) {
		ci.uid = attr.UID
		ci.ctime = int64(now)
		f.markDirty(ci)
	}
	if attr.Has(vfs.AttrGID) {
		ci.gid = attr.GID
		ci.ctime = int64(now)
		f.markDirty(ci)
	}
	if attr.Has(vfs.AttrSize) {
		if ci.vfsMode().IsDir() {
			return errno.EISDIR
		}
		if !ci.vfsMode().IsRegular() {
			return errno.EINVAL
		}
		if e := f.truncateFile(ci, attr.Size); e != errno.OK {
			return e
		}
		ci.mtime = int64(now)
		ci.ctime = int64(now)
		f.markDirty(ci)
	}
	if attr.Has(vfs.AttrAtime) {
		ci.atime = int64(attr.Atime)
		f.markDirty(ci)
	}
	if attr.Has(vfs.AttrMtime) {
		ci.mtime = int64(attr.Mtime)
		f.markDirty(ci)
	}
	return errno.OK
}

func (f *FS) truncateFile(ci *cachedInode, size int64) errno.Errno {
	if size < 0 {
		return errno.EINVAL
	}
	if size > int64(MaxFileBlocks)*BlockSize {
		return errno.EFBIG
	}
	old := int64(ci.size)
	switch {
	case size < old:
		keep := int((size + BlockSize - 1) / BlockSize)
		if e := f.truncateBlocks(ci, keep); e != errno.OK {
			return e
		}
		// Zero the tail of the final partial block so a later extension
		// reads zeros.
		if size%BlockSize != 0 {
			idx := int(size / BlockSize)
			blk, e := f.blockForIndex(ci, idx, false)
			if e != errno.OK {
				return e
			}
			if blk != 0 {
				buf, err := f.readBlock(blk)
				if err != nil {
					return errno.EIO
				}
				for i := size % BlockSize; i < BlockSize; i++ {
					buf[i] = 0
				}
				if err := f.writeBlock(blk, buf); err != nil {
					return errno.EIO
				}
			}
		}
	case size > old:
		// Growing: nothing to allocate eagerly — unmapped blocks read as
		// zeros (sparse file), exactly like ext.
	}
	ci.size = uint64(size)
	f.markDirty(ci)
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
	if _, _, found, e := f.findEntry(dir, name); e != errno.OK {
		return 0, nil, e
	} else if found {
		return 0, nil, errno.EEXIST
	}
	ino, ci, e := f.allocInode()
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
		blk, e2 := f.allocBlock()
		if e2 != errno.OK {
			f.freeInode(ino)
			return 0, nil, e2
		}
		ci.direct[0] = blk
		ci.size = BlockSize
		buf := f.blankBlock()
		pos := encodeDirent(buf, ino, ".")
		encodeDirent(buf[pos:], uint32(parent), "..")
		f.writeMetaBlock(blk, buf)
	} else {
		ci.nlink = 1
	}
	if e := f.addDirEntry(dir, ino, name); e != errno.OK {
		if mode.IsDir() {
			f.freeBlock(ci.direct[0])
		}
		f.freeInode(ino)
		return 0, nil, e
	}
	if mode.IsDir() {
		dir.nlink++
	}
	dir.mtime = now
	dir.ctime = now
	f.markDirty(dir)
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

func (f *FS) dropLink(ino uint32, ci *cachedInode) errno.Errno {
	ci.nlink--
	if ci.nlink == 0 {
		if e := f.truncateBlocks(ci, 0); e != errno.OK {
			return e
		}
		f.freeInode(ino)
		return errno.OK
	}
	ci.ctime = int64(f.now())
	f.markDirty(ci)
	return errno.OK
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
	ino, _, found, e := f.findEntry(dir, name)
	if e != errno.OK {
		return e
	}
	if !found {
		return errno.ENOENT
	}
	ci := f.getInode(ino)
	if ci == nil {
		return errno.EIO
	}
	if ci.vfsMode().IsDir() {
		return errno.EISDIR
	}
	if e := f.removeDirEntry(dir, name); e != errno.OK {
		return e
	}
	now := int64(f.now())
	dir.mtime, dir.ctime = now, now
	f.markDirty(dir)
	return f.dropLink(ino, ci)
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
	ino, _, found, e := f.findEntry(dir, name)
	if e != errno.OK {
		return e
	}
	if !found {
		return errno.ENOENT
	}
	ci := f.getInode(ino)
	if ci == nil {
		return errno.EIO
	}
	if !ci.vfsMode().IsDir() {
		return errno.ENOTDIR
	}
	n, e := f.dirEntryCount(ci)
	if e != errno.OK {
		return e
	}
	if n > 0 {
		return errno.ENOTEMPTY
	}
	if e := f.removeDirEntry(dir, name); e != errno.OK {
		return e
	}
	if e := f.truncateBlocks(ci, 0); e != errno.OK {
		return e
	}
	f.freeInode(ino)
	dir.nlink--
	now := int64(f.now())
	dir.mtime, dir.ctime = now, now
	f.markDirty(dir)
	return errno.OK
}

// Read implements vfs.FS.
func (f *FS) Read(ino vfs.Ino, off int64, n int, dst []byte) ([]byte, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return dst, errno.ENOENT
	}
	if ci.vfsMode().IsDir() {
		return dst, errno.EISDIR
	}
	if !ci.vfsMode().IsRegular() {
		return dst, errno.EINVAL
	}
	if off < 0 || n < 0 {
		return dst, errno.EINVAL
	}
	ci.atime = int64(f.now())
	f.markDirty(ci)
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
		idx := int(pos / BlockSize)
		in := pos % BlockSize
		cnt := int64(BlockSize) - in
		if pos+cnt > end {
			cnt = end - pos
		}
		blk, e := f.blockForIndex(ci, idx, false)
		if e != errno.OK {
			return dst[:start], e
		}
		if blk == 0 {
			dst = append(dst, make([]byte, cnt)...) // a hole
		} else {
			buf, err := f.readBlock(blk)
			if err != nil {
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
	if ci.vfsMode().IsDir() {
		return 0, errno.EISDIR
	}
	if !ci.vfsMode().IsRegular() {
		return 0, errno.EINVAL
	}
	if off < 0 {
		return 0, errno.EINVAL
	}
	end := off + int64(len(data))
	if end > int64(MaxFileBlocks)*BlockSize {
		return 0, errno.EFBIG
	}
	for pos := off; pos < end; {
		idx := int(pos / BlockSize)
		in := pos % BlockSize
		cnt := int64(BlockSize) - in
		if pos+cnt > end {
			cnt = end - pos
		}
		blk, e := f.blockForIndex(ci, idx, true)
		if e != errno.OK {
			return 0, e
		}
		if in == 0 && cnt == BlockSize {
			if err := f.writeBlock(blk, data[pos-off:pos-off+BlockSize]); err != nil {
				return 0, errno.EIO
			}
		} else {
			buf, err := f.readBlock(blk)
			if err != nil {
				return 0, errno.EIO
			}
			copy(buf[in:], data[pos-off:pos-off+cnt])
			if err := f.writeBlock(blk, buf); err != nil {
				return 0, errno.EIO
			}
		}
		pos += cnt
	}
	now := int64(f.now())
	if end > int64(ci.size) {
		ci.size = uint64(end)
	}
	ci.mtime = now
	ci.ctime = now
	f.markDirty(ci)
	return len(data), errno.OK
}

// ReadDir implements vfs.FS. Entries come back in on-disk block order,
// which for extfs is insertion order after compaction — a different order
// from other file systems (§3.4). The names come from the mount's name
// table (mountBufs.name), so a listing of names seen before allocates
// nothing.
func (f *FS) ReadDir(ino vfs.Ino, dst []vfs.DirEntry) ([]vfs.DirEntry, errno.Errno) {
	ci, e := f.dirInode(ino)
	if e != errno.OK {
		return dst, e
	}
	ci.atime = int64(f.now())
	f.markDirty(ci)
	blocks, e := f.dirBlocks(ci)
	if e != errno.OK {
		return dst, e
	}
	out := dst
	for _, b := range blocks {
		buf, err := f.readBlock(b)
		if err != nil {
			return dst, errno.EIO
		}
		for s := scanDirBlock(buf); s.next(); {
			out = append(out, vfs.DirEntry{Name: f.bufs.name(s.name), Ino: vfs.Ino(s.ino)})
		}
	}
	// Modes in a second pass: getInode reads the inode table through the
	// scratch the scan above reads the directory in.
	for i := len(dst); i < len(out); i++ {
		if child := f.getInode(uint32(out[i].Ino)); child != nil {
			out[i].Mode = child.vfsMode() & vfs.ModeMask
		}
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
	srcIno, _, found, e := f.findEntry(odir, oldName)
	if e != errno.OK {
		return e
	}
	if !found {
		return errno.ENOENT
	}
	src := f.getInode(srcIno)
	if src == nil {
		return errno.EIO
	}
	if src.vfsMode().IsDir() {
		// Reject moving a directory into its own subtree.
		p := uint32(newParent)
		for {
			if p == srcIno {
				return errno.EINVAL
			}
			if p == RootIno {
				break
			}
			pi := f.getInode(p)
			if pi == nil {
				break
			}
			up, _, ok, e2 := f.findEntry(pi, "..")
			if e2 != errno.OK || !ok || up == p {
				break
			}
			p = up
		}
	}
	if dstIno, _, exists, e2 := f.findEntry(ndir, newName); e2 != errno.OK {
		return e2
	} else if exists {
		if dstIno == srcIno {
			return errno.OK
		}
		dst := f.getInode(dstIno)
		if dst == nil {
			return errno.EIO
		}
		switch {
		case src.vfsMode().IsDir() && !dst.vfsMode().IsDir():
			return errno.ENOTDIR
		case !src.vfsMode().IsDir() && dst.vfsMode().IsDir():
			return errno.EISDIR
		}
		if dst.vfsMode().IsDir() {
			n, e3 := f.dirEntryCount(dst)
			if e3 != errno.OK {
				return e3
			}
			if n > 0 {
				return errno.ENOTEMPTY
			}
			if e3 := f.truncateBlocks(dst, 0); e3 != errno.OK {
				return e3
			}
			f.freeInode(dstIno)
			ndir.nlink--
			if e3 := f.replaceDirEntry(ndir, newName, srcIno); e3 != errno.OK {
				return e3
			}
		} else {
			if e3 := f.replaceDirEntry(ndir, newName, srcIno); e3 != errno.OK {
				return e3
			}
			if e3 := f.dropLink(dstIno, dst); e3 != errno.OK {
				return e3
			}
		}
		if e3 := f.removeDirEntry(odir, oldName); e3 != errno.OK {
			return e3
		}
	} else {
		if e3 := f.addDirEntry(ndir, srcIno, newName); e3 != errno.OK {
			return e3
		}
		if e3 := f.removeDirEntry(odir, oldName); e3 != errno.OK {
			return e3
		}
	}
	if src.vfsMode().IsDir() && oldParent != newParent {
		// Update the moved directory's on-disk "..".
		if e3 := f.replaceDirEntry(src, "..", uint32(newParent)); e3 != errno.OK {
			return e3
		}
		odir.nlink--
		ndir.nlink++
	}
	now := int64(f.now())
	odir.mtime, odir.ctime = now, now
	ndir.mtime, ndir.ctime = now, now
	src.ctime = now
	f.markDirty(odir)
	f.markDirty(ndir)
	f.markDirty(src)
	return errno.OK
}

// Link implements vfs.LinkFS.
func (f *FS) Link(ino vfs.Ino, newParent vfs.Ino, newName string) errno.Errno {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return errno.ENOENT
	}
	if ci.vfsMode().IsDir() {
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
	if _, _, found, e2 := f.findEntry(dir, newName); e2 != errno.OK {
		return e2
	} else if found {
		return errno.EEXIST
	}
	if e := f.addDirEntry(dir, uint32(ino), newName); e != errno.OK {
		return e
	}
	ci.nlink++
	now := int64(f.now())
	ci.ctime = now
	dir.mtime, dir.ctime = now, now
	f.markDirty(ci)
	f.markDirty(dir)
	return errno.OK
}

// Symlink implements vfs.SymlinkFS. The target is stored in the link's
// first data block.
func (f *FS) Symlink(target string, parent vfs.Ino, name string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	if len(target) >= BlockSize {
		return 0, errno.ENAMETOOLONG
	}
	ino, ci, e := f.makeNode(parent, name, vfs.ModeLink|0777, uid, gid)
	if e != errno.OK {
		return 0, e
	}
	blk, e := f.allocBlock()
	if e != errno.OK {
		_ = f.Unlink(parent, name)
		return 0, e
	}
	buf := f.blankBlock()
	copy(buf, target)
	f.writeMetaBlock(blk, buf)
	ci.direct[0] = blk
	ci.size = uint64(len(target))
	f.markDirty(ci)
	return ino, errno.OK
}

// Readlink implements vfs.SymlinkFS.
func (f *FS) Readlink(ino vfs.Ino) (string, errno.Errno) {
	ci := f.getInode(uint32(ino))
	if ci == nil {
		return "", errno.ENOENT
	}
	if !ci.vfsMode().IsSymlink() {
		return "", errno.EINVAL
	}
	buf, err := f.readBlock(ci.direct[0])
	if err != nil {
		return "", errno.EIO
	}
	return f.bufs.name(buf[:ci.size]), errno.OK
}

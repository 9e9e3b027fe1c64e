package jffs2sim

import (
	"mcfs/internal/errno"
	"mcfs/internal/vfs"
)

// Root implements vfs.FS.
func (f *FS) Root() vfs.Ino { return RootIno }

func (f *FS) get(ino vfs.Ino) *inodeInfo { return f.inodes[uint32(ino)] }

func (f *FS) dir(ino vfs.Ino) (*inodeInfo, errno.Errno) {
	nd := f.get(ino)
	if nd == nil {
		return nil, errno.ENOENT
	}
	if !nd.mode.IsDir() {
		return nil, errno.ENOTDIR
	}
	return nd, errno.OK
}

// Lookup implements vfs.FS.
func (f *FS) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	dir, e := f.dir(parent)
	if e != errno.OK {
		return 0, e
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return 0, e
	}
	switch name {
	case ".":
		return parent, errno.OK
	case "..":
		return vfs.Ino(dir.parent), errno.OK
	}
	if ino, ok := dir.entries[name]; ok {
		return vfs.Ino(ino), errno.OK
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
		// JFFS2 directory sizes are a constant PAGE_SIZE-like value, not
		// entry-derived; report the node-count-independent 4096.
		size = 4096
	}
	return vfs.Stat{
		Ino:    ino,
		Mode:   nd.mode,
		Nlink:  nd.nlink,
		UID:    nd.uid,
		GID:    nd.gid,
		Size:   size,
		Blocks: (size + 511) / 512,
		Atime:  nd.atime,
		Mtime:  nd.mtime,
		Ctime:  nd.ctime,
	}, errno.OK
}

// Setattr implements vfs.FS: validate every attribute, make room for the
// metadata node, then change memory and append it.
func (f *FS) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	nd := f.get(ino)
	if nd == nil {
		return errno.ENOENT
	}
	if attr.Size != nil {
		switch {
		case nd.mode.IsDir():
			return errno.EISDIR
		case !nd.mode.IsRegular(), *attr.Size < 0:
			return errno.EINVAL
		}
	}
	logged := attr.Mode != nil || attr.UID != nil || attr.GID != nil || attr.Size != nil || attr.Mtime != nil
	if logged {
		if e := f.makeRoom(inodeNodeLens(nd.target, 0)...); e != errno.OK {
			return e
		}
	}
	old := *nd
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
		size := *attr.Size
		if size <= int64(len(nd.content)) {
			nd.content = nd.content[:size]
		} else {
			nc := make([]byte, size)
			copy(nc, nd.content)
			nd.content = nc
		}
		nd.size = size
		nd.mtime = now
		nd.ctime = now
	}
	if attr.Atime != nil {
		nd.atime = *attr.Atime
	}
	if attr.Mtime != nil {
		nd.mtime = *attr.Mtime
	}
	if !logged {
		return errno.OK
	}
	if e := f.logInode(uint32(ino), nd, 0, nil); e != errno.OK {
		*nd = old
		return e
	}
	return errno.OK
}

// makeNode creates name in parent: it makes room for every node the
// create appends — the inode, the dirent, and for a symlink a second
// inode node carrying the target — before it changes anything.
func (f *FS) makeNode(parent vfs.Ino, name string, mode vfs.Mode, target string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	dir, e := f.dir(parent)
	if e != errno.OK {
		return 0, e
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return 0, e
	}
	if name == "." || name == ".." {
		return 0, errno.EEXIST
	}
	if _, ok := dir.entries[name]; ok {
		return 0, errno.EEXIST
	}
	lens := []int{nodeHeader + inodeFixed, nodeHeader + direntFixed + len(name)}
	if mode.IsSymlink() {
		lens = append(lens, inodeNodeLens(target, 0)...)
	}
	if e := f.makeRoom(lens...); e != errno.OK {
		return 0, e
	}
	now := f.now()
	nd := &inodeInfo{
		mode: mode,
		uid:  uid, gid: gid,
		atime: now, mtime: now, ctime: now,
	}
	if mode.IsDir() {
		nd.nlink = 2
		nd.entries = make(map[string]uint32)
		nd.parent = uint32(parent)
		dir.nlink++
	} else {
		nd.nlink = 1
	}
	ino := f.nextIno
	f.nextIno++
	f.inodes[ino] = nd
	dir.entries[name] = ino
	dir.order = append(dir.order, name)
	dir.mtime, dir.ctime = now, now
	if e := f.logInode(ino, nd, 0, nil); e != errno.OK {
		f.undoMake(dir, name, ino, mode.IsDir())
		return 0, e
	}
	if e := f.logDirent(uint32(parent), ino, name); e != errno.OK {
		f.undoMake(dir, name, ino, mode.IsDir())
		return 0, e
	}
	if mode.IsSymlink() {
		nd.target = target
		if e := f.logInode(ino, nd, 0, nil); e != errno.OK {
			f.undoMake(dir, name, ino, false)
			return 0, e
		}
	}
	return vfs.Ino(ino), errno.OK
}

func (f *FS) undoMake(dir *inodeInfo, name string, ino uint32, isDir bool) {
	delete(dir.entries, name)
	for i, n := range dir.order {
		if n == name {
			dir.order = append(dir.order[:i], dir.order[i+1:]...)
			break
		}
	}
	delete(f.inodes, ino)
	if isDir {
		dir.nlink--
	}
}

// Create implements vfs.FS.
func (f *FS) Create(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	return f.makeNode(parent, name, vfs.ModeReg|mode.Perm(), "", uid, gid)
}

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	return f.makeNode(parent, name, vfs.ModeDir|mode.Perm(), "", uid, gid)
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(parent vfs.Ino, name string) errno.Errno {
	dir, e := f.dir(parent)
	if e != errno.OK {
		return e
	}
	if e := vfs.ValidName(name); e != errno.OK {
		return e
	}
	ino, ok := dir.entries[name]
	if !ok {
		return errno.ENOENT
	}
	nd := f.inodes[ino]
	if nd == nil {
		return errno.EIO
	}
	if nd.mode.IsDir() {
		return errno.EISDIR
	}
	// Log the deletion dirent (whiteout), then the link-count update.
	if e := f.logDirent(uint32(parent), 0, name); e != errno.OK {
		return e
	}
	nd.nlink--
	if e := f.logInode(ino, nd, 0, nil); e != errno.OK {
		nd.nlink++
		return e
	}
	delete(dir.entries, name)
	for i, n := range dir.order {
		if n == name {
			dir.order = append(dir.order[:i], dir.order[i+1:]...)
			break
		}
	}
	if nd.nlink == 0 {
		delete(f.inodes, ino)
	} else {
		nd.ctime = f.now()
	}
	now := f.now()
	dir.mtime, dir.ctime = now, now
	return errno.OK
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(parent vfs.Ino, name string) errno.Errno {
	dir, e := f.dir(parent)
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
	ino, ok := dir.entries[name]
	if !ok {
		return errno.ENOENT
	}
	nd := f.inodes[ino]
	if nd == nil {
		return errno.EIO
	}
	if !nd.mode.IsDir() {
		return errno.ENOTDIR
	}
	if len(nd.entries) > 0 {
		return errno.ENOTEMPTY
	}
	if e := f.logDirent(uint32(parent), 0, name); e != errno.OK {
		return e
	}
	delete(dir.entries, name)
	for i, n := range dir.order {
		if n == name {
			dir.order = append(dir.order[:i], dir.order[i+1:]...)
			break
		}
	}
	delete(f.inodes, ino)
	dir.nlink--
	now := f.now()
	dir.mtime, dir.ctime = now, now
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
	copy(out, nd.content[off:end])
	return out, errno.OK
}

// Write implements vfs.FS: make room for the whole write, update memory,
// then append log nodes.
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
	if e := f.makeRoom(inodeNodeLens(nd.target, len(data))...); e != errno.OK {
		return 0, e
	}
	end := off + int64(len(data))
	oldContent := nd.content
	oldSize := nd.size
	if end > int64(len(nd.content)) {
		nc := make([]byte, end)
		copy(nc, nd.content)
		nd.content = nc
	}
	copy(nd.content[off:end], data)
	if end > nd.size {
		nd.size = end
	}
	now := f.now()
	nd.mtime, nd.ctime = now, now
	if e := f.logInode(uint32(ino), nd, off, data); e != errno.OK {
		nd.content = oldContent
		nd.size = oldSize
		return 0, e
	}
	return len(data), errno.OK
}

// ReadDir implements vfs.FS; entries come back in log-arrival order.
func (f *FS) ReadDir(ino vfs.Ino) ([]vfs.DirEntry, errno.Errno) {
	dir, e := f.dir(ino)
	if e != errno.OK {
		return nil, e
	}
	dir.atime = f.now()
	out := make([]vfs.DirEntry, 0, len(dir.order)+2)
	out = append(out,
		vfs.DirEntry{Name: ".", Ino: ino, Mode: vfs.ModeDir},
		vfs.DirEntry{Name: "..", Ino: vfs.Ino(dir.parent), Mode: vfs.ModeDir},
	)
	for _, name := range dir.order {
		cIno := dir.entries[name]
		mode := vfs.Mode(0)
		if child := f.inodes[cIno]; child != nil {
			mode = child.mode & vfs.ModeMask
		}
		out = append(out, vfs.DirEntry{Name: name, Ino: vfs.Ino(cIno), Mode: mode})
	}
	return out, errno.OK
}

// StatFS implements vfs.FS. Free space is erased log space minus nothing —
// a rough measure, like JFFS2's own pessimistic accounting.
func (f *FS) StatFS() (vfs.StatFS, errno.Errno) {
	es := int64(f.mtd.EraseSize())
	total := f.mtd.Size() / es
	used := int64(0)
	for _, u := range f.blockUsed {
		used += int64(u)
	}
	freeBlocks := total - (used+es-1)/es
	if freeBlocks < 0 {
		freeBlocks = 0
	}
	return vfs.StatFS{
		BlockSize:   es,
		TotalBlocks: total,
		FreeBlocks:  freeBlocks,
		TotalInodes: 1 << 20, // no fixed inode table
		FreeInodes:  1<<20 - int64(len(f.inodes)),
	}, errno.OK
}

// Sync implements vfs.FS. Log appends are already durable on flash, so
// there is nothing to flush.
func (f *FS) Sync() errno.Errno { return errno.OK }

// Rename implements vfs.RenameFS.
func (f *FS) Rename(oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string) errno.Errno {
	odir, e := f.dir(oldParent)
	if e != errno.OK {
		return e
	}
	ndir, e := f.dir(newParent)
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
	srcIno, ok := odir.entries[oldName]
	if !ok {
		return errno.ENOENT
	}
	src := f.inodes[srcIno]
	if src == nil {
		return errno.EIO
	}
	if src.mode.IsDir() {
		p := uint32(newParent)
		for {
			if p == srcIno {
				return errno.EINVAL
			}
			pd := f.inodes[p]
			if pd == nil || p == pd.parent {
				break
			}
			p = pd.parent
		}
	}
	if dstIno, exists := ndir.entries[newName]; exists {
		if dstIno == srcIno {
			return errno.OK
		}
		dst := f.inodes[dstIno]
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
		// Log: overwrite target entry and drop the displaced inode.
		if dst.mode.IsDir() {
			delete(f.inodes, dstIno)
			ndir.nlink--
		} else {
			dst.nlink--
			if e := f.logInode(dstIno, dst, 0, nil); e != errno.OK {
				dst.nlink++
				return e
			}
			if dst.nlink == 0 {
				delete(f.inodes, dstIno)
			}
		}
		delete(ndir.entries, newName)
		for i, n := range ndir.order {
			if n == newName {
				ndir.order = append(ndir.order[:i], ndir.order[i+1:]...)
				break
			}
		}
	}
	if e := f.logDirent(uint32(oldParent), 0, oldName); e != errno.OK {
		return e
	}
	if e := f.logDirent(uint32(newParent), srcIno, newName); e != errno.OK {
		return e
	}
	delete(odir.entries, oldName)
	for i, n := range odir.order {
		if n == oldName {
			odir.order = append(odir.order[:i], odir.order[i+1:]...)
			break
		}
	}
	ndir.entries[newName] = srcIno
	ndir.order = append(ndir.order, newName)
	if src.mode.IsDir() && oldParent != newParent {
		src.parent = uint32(newParent)
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
	dir, e := f.dir(newParent)
	if e != errno.OK {
		return e
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
	if e := f.makeRoom(append(inodeNodeLens(nd.target, 0), nodeHeader+direntFixed+len(newName))...); e != errno.OK {
		return e
	}
	nd.nlink++
	if e := f.logInode(uint32(ino), nd, 0, nil); e != errno.OK {
		nd.nlink--
		return e
	}
	if e := f.logDirent(uint32(newParent), uint32(ino), newName); e != errno.OK {
		nd.nlink--
		return e
	}
	dir.entries[newName] = uint32(ino)
	dir.order = append(dir.order, newName)
	now := f.now()
	nd.ctime = now
	dir.mtime, dir.ctime = now, now
	return errno.OK
}

// Symlink implements vfs.SymlinkFS.
func (f *FS) Symlink(target string, parent vfs.Ino, name string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	if len(target) > MaxDataPerNode {
		return 0, errno.ENAMETOOLONG
	}
	return f.makeNode(parent, name, vfs.ModeLink|0777, target, uid, gid)
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

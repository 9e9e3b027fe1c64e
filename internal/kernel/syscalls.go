package kernel

import (
	"mcfs/internal/errno"
	"mcfs/internal/vfs"
)

// This file is the kernel's syscall surface. Every entry point takes an
// absolute path (mount point included), resolves it through the dentry
// cache, dispatches to the mounted file system, updates the caches the
// way Linux's VFS would, and returns a POSIX errno.

// Open opens (optionally creating) a file and returns a descriptor.
func (k *Kernel) Open(path string, flags vfs.OpenFlag, mode vfs.Mode) (FD, errno.Errno) {
	defer k.begin("open").End()
	// O_CREAT|O_EXCL fails on an existing last component, a symlink
	// included whatever it points to, so it never follows one.
	excl := flags&OExclCreate == OExclCreate
	r, e := k.resolve(path, !excl)
	if e != errno.OK {
		return -1, e
	}
	m := r.mount
	var ino vfs.Ino
	switch {
	case r.exists:
		if excl {
			return -1, errno.EEXIST
		}
		st, e2 := m.getattrCached(r.ino)
		if e2 != errno.OK {
			return -1, e2
		}
		if st.Mode.IsDir() && flags.Writable() {
			return -1, errno.EISDIR
		}
		ino = r.ino
		if flags&vfs.OTrunc != 0 && flags.Writable() && st.Mode.IsRegular() {
			if e2 := m.fs.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: 0}); e2 != errno.OK {
				return -1, e2
			}
			m.attrDirty(ino)
		}
	case flags&vfs.OCreate != 0:
		if r.name == "" {
			return -1, errno.EISDIR
		}
		newIno, e2 := m.fs.Create(r.parent, r.name, mode, k.UID, k.GID)
		if e2 != errno.OK {
			return -1, e2
		}
		m.cacheAdd(r.parent, r.name, newIno)
		m.attrDirty(r.parent)
		ino = newIno
	default:
		return -1, errno.ENOENT
	}
	fd := k.nextFD
	k.nextFD++
	of := openFile{mount: m, ino: ino, flags: flags}
	if flags&vfs.OAppend != 0 {
		st, e2 := m.fs.Getattr(ino)
		if e2 != errno.OK {
			return -1, e2
		}
		of.pos = st.Size
	}
	k.fds[fd] = of
	return fd, errno.OK
}

// OExclCreate is the O_CREAT|O_EXCL combination.
const OExclCreate = vfs.OCreate | vfs.OExcl

// Close releases a descriptor.
func (k *Kernel) Close(fd FD) errno.Errno {
	defer k.begin("close").End()
	if _, ok := k.fds[fd]; !ok {
		return errno.EBADF
	}
	delete(k.fds, fd)
	return errno.OK
}

// ReadFD appends up to n bytes at the descriptor's offset to dst, as
// vfs.FS.Read does, and advances the offset by the bytes appended.
func (k *Kernel) ReadFD(fd FD, n int, dst []byte) ([]byte, errno.Errno) {
	defer k.begin("read").End()
	of, ok := k.fds[fd]
	if !ok {
		return dst, errno.EBADF
	}
	if !of.flags.Readable() {
		return dst, errno.EBADF
	}
	out, e := of.mount.fs.Read(of.ino, of.pos, n, dst)
	if e != errno.OK {
		return dst, e
	}
	of.pos += int64(len(out) - len(dst))
	k.fds[fd] = of
	of.mount.attrDirty(of.ino) // atime moved
	return out, errno.OK
}

// WriteFD writes data at the descriptor's offset, advancing it. With
// O_APPEND the write lands at EOF regardless of the offset.
func (k *Kernel) WriteFD(fd FD, data []byte) (int, errno.Errno) {
	defer k.begin("write").End()
	of, ok := k.fds[fd]
	if !ok {
		return 0, errno.EBADF
	}
	if !of.flags.Writable() {
		return 0, errno.EBADF
	}
	if of.flags&vfs.OAppend != 0 {
		st, e := of.mount.fs.Getattr(of.ino)
		if e != errno.OK {
			return 0, e
		}
		of.pos = st.Size
		k.fds[fd] = of
	}
	n, e := of.mount.fs.Write(of.ino, of.pos, data)
	if e != errno.OK {
		return 0, e
	}
	of.pos += int64(n)
	k.fds[fd] = of
	of.mount.attrDirty(of.ino)
	return n, errno.OK
}

// PReadFD appends up to n bytes at an explicit offset to dst (pread).
func (k *Kernel) PReadFD(fd FD, off int64, n int, dst []byte) ([]byte, errno.Errno) {
	defer k.begin("pread").End()
	of, ok := k.fds[fd]
	if !ok {
		return dst, errno.EBADF
	}
	if !of.flags.Readable() {
		return dst, errno.EBADF
	}
	out, e := of.mount.fs.Read(of.ino, off, n, dst)
	if e != errno.OK {
		return dst, e
	}
	of.mount.attrDirty(of.ino)
	return out, errno.OK
}

// PWriteFD writes data at an explicit offset (pwrite).
func (k *Kernel) PWriteFD(fd FD, off int64, data []byte) (int, errno.Errno) {
	defer k.begin("pwrite").End()
	of, ok := k.fds[fd]
	if !ok {
		return 0, errno.EBADF
	}
	if !of.flags.Writable() {
		return 0, errno.EBADF
	}
	n, e := of.mount.fs.Write(of.ino, off, data)
	if e != errno.OK {
		return 0, e
	}
	of.mount.attrDirty(of.ino)
	return n, errno.OK
}

// Seek sets the descriptor offset (whence: 0=set, 1=cur, 2=end).
func (k *Kernel) Seek(fd FD, off int64, whence int) (int64, errno.Errno) {
	defer k.begin("seek").End()
	of, ok := k.fds[fd]
	if !ok {
		return 0, errno.EBADF
	}
	var base int64
	switch whence {
	case 0:
	case 1:
		base = of.pos
	case 2:
		st, e := of.mount.fs.Getattr(of.ino)
		if e != errno.OK {
			return 0, e
		}
		base = st.Size
	default:
		return 0, errno.EINVAL
	}
	np := base + off
	if np < 0 {
		return 0, errno.EINVAL
	}
	of.pos = np
	k.fds[fd] = of
	return np, errno.OK
}

// FsyncFD flushes the file's file system.
func (k *Kernel) FsyncFD(fd FD) errno.Errno {
	defer k.begin("fsync").End()
	of, ok := k.fds[fd]
	if !ok {
		return errno.EBADF
	}
	return of.mount.fs.Sync()
}

// Mkdir creates a directory. A final symlink is not followed: its name
// exists.
func (k *Kernel) Mkdir(path string, mode vfs.Mode) errno.Errno {
	defer k.begin("mkdir").End()
	r, e := k.resolve(path, false)
	if e != errno.OK {
		return e
	}
	if r.exists {
		// NOTE: this EEXIST may come straight from the dentry cache —
		// if a file system restored an older state without invalidating
		// kernel caches, this is the paper's spurious-EEXIST bug (§6).
		return errno.EEXIST
	}
	m := r.mount
	ino, e := m.fs.Mkdir(r.parent, r.name, mode, k.UID, k.GID)
	if e != errno.OK {
		return e
	}
	m.cacheAdd(r.parent, r.name, ino)
	m.attrDirty(r.parent)
	return errno.OK
}

// Rmdir removes an empty directory.
func (k *Kernel) Rmdir(path string) errno.Errno {
	defer k.begin("rmdir").End()
	r, e := k.resolve(path, false)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	if r.name == "" {
		return errno.EBUSY // the mount root
	}
	m := r.mount
	if e := m.fs.Rmdir(r.parent, r.name); e != errno.OK {
		return e
	}
	m.cacheRemove(r.parent, r.name)
	m.attrDirty(r.parent)
	m.attrDirty(r.ino)
	return errno.OK
}

// Unlink removes a file or symlink.
func (k *Kernel) Unlink(path string) errno.Errno {
	defer k.begin("unlink").End()
	r, e := k.resolve(path, false)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	if r.name == "" {
		return errno.EISDIR
	}
	m := r.mount
	if e := m.fs.Unlink(r.parent, r.name); e != errno.OK {
		return e
	}
	m.cacheRemove(r.parent, r.name)
	m.attrDirty(r.parent)
	m.attrDirty(r.ino)
	return errno.OK
}

// Rename moves oldPath to newPath (within one mount).
func (k *Kernel) Rename(oldPath, newPath string) errno.Errno {
	defer k.begin("rename").End()
	ro, e := k.resolve(oldPath, false)
	if e != errno.OK {
		return e
	}
	rn, e := k.resolve(newPath, false)
	if e != errno.OK {
		return e
	}
	if ro.mount != rn.mount {
		return errno.EXDEV
	}
	if !ro.exists {
		return errno.ENOENT
	}
	if ro.name == "" || rn.name == "" {
		return errno.EBUSY
	}
	m := ro.mount
	if m.rename == nil {
		return errno.ENOSYS
	}
	if e := m.rename.Rename(ro.parent, ro.name, rn.parent, rn.name); e != errno.OK {
		return e
	}
	if rn.exists && rn.ino == ro.ino {
		// Renaming one hard link onto another link of the same inode is
		// a POSIX no-op: the file system keeps both names, so the caches
		// must not record a deletion.
		return errno.OK
	}
	m.cacheRemove(ro.parent, ro.name)
	m.cacheAdd(rn.parent, rn.name, ro.ino)
	m.attrDirty(ro.parent)
	m.attrDirty(rn.parent)
	m.attrDirty(ro.ino)
	if rn.exists {
		m.attrDirty(rn.ino)
	}
	return errno.OK
}

// Link creates a hard link newPath referring to oldPath's inode. Neither
// path's final symlink is followed.
func (k *Kernel) Link(oldPath, newPath string) errno.Errno {
	defer k.begin("link").End()
	ro, e := k.resolve(oldPath, false)
	if e != errno.OK {
		return e
	}
	rn, e := k.resolve(newPath, false)
	if e != errno.OK {
		return e
	}
	if ro.mount != rn.mount {
		return errno.EXDEV
	}
	if !ro.exists {
		return errno.ENOENT
	}
	if rn.exists {
		return errno.EEXIST
	}
	m := ro.mount
	if m.link == nil {
		return errno.ENOSYS
	}
	if e := m.link.Link(ro.ino, rn.parent, rn.name); e != errno.OK {
		return e
	}
	m.cacheAdd(rn.parent, rn.name, ro.ino)
	m.attrDirty(ro.ino)
	m.attrDirty(rn.parent)
	return errno.OK
}

// Symlink creates a symbolic link at path pointing to target. A final
// symlink at path is not followed: its name exists.
func (k *Kernel) Symlink(target, path string) errno.Errno {
	defer k.begin("symlink").End()
	r, e := k.resolve(path, false)
	if e != errno.OK {
		return e
	}
	if r.exists {
		return errno.EEXIST
	}
	m := r.mount
	if m.symlink == nil {
		return errno.ENOSYS
	}
	ino, e := m.symlink.Symlink(target, r.parent, r.name, k.UID, k.GID)
	if e != errno.OK {
		return e
	}
	m.cacheAdd(r.parent, r.name, ino)
	m.attrDirty(r.parent)
	return errno.OK
}

// Readlink returns the target of the symlink at path.
func (k *Kernel) Readlink(path string) (string, errno.Errno) {
	defer k.begin("readlink").End()
	r, e := k.resolve(path, false)
	if e != errno.OK {
		return "", e
	}
	if !r.exists {
		return "", errno.ENOENT
	}
	if r.mount.symlink == nil {
		return "", errno.EINVAL
	}
	return r.mount.symlink.Readlink(r.ino)
}

// Stat returns metadata, following symlinks.
func (k *Kernel) Stat(path string) (vfs.Stat, errno.Errno) {
	defer k.begin("stat").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return vfs.Stat{}, e
	}
	if !r.exists {
		return vfs.Stat{}, errno.ENOENT
	}
	return r.mount.getattrCached(r.ino)
}

// Lstat returns metadata without following a final symlink.
func (k *Kernel) Lstat(path string) (vfs.Stat, errno.Errno) {
	defer k.begin("lstat").End()
	r, e := k.resolve(path, false)
	if e != errno.OK {
		return vfs.Stat{}, e
	}
	if !r.exists {
		return vfs.Stat{}, errno.ENOENT
	}
	return r.mount.getattrCached(r.ino)
}

// Access reports whether path exists (mode checks are trivial for root,
// which is how MCFS runs).
func (k *Kernel) Access(path string) errno.Errno {
	defer k.begin("access").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	return errno.OK
}

// Chmod updates permission bits.
func (k *Kernel) Chmod(path string, mode vfs.Mode) errno.Errno {
	defer k.begin("chmod").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	m := r.mount
	if e := m.fs.Setattr(r.ino, vfs.SetAttr{Valid: vfs.AttrMode, Mode: mode.Perm()}); e != errno.OK {
		return e
	}
	m.attrDirty(r.ino)
	return errno.OK
}

// Chown updates ownership.
func (k *Kernel) Chown(path string, uid, gid uint32) errno.Errno {
	defer k.begin("chown").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	m := r.mount
	if e := m.fs.Setattr(r.ino, vfs.SetAttr{Valid: vfs.AttrUID | vfs.AttrGID, UID: uid, GID: gid}); e != errno.OK {
		return e
	}
	m.attrDirty(r.ino)
	return errno.OK
}

// Truncate sets the file size.
func (k *Kernel) Truncate(path string, size int64) errno.Errno {
	defer k.begin("truncate").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	m := r.mount
	if e := m.fs.Setattr(r.ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		return e
	}
	m.attrDirty(r.ino)
	return errno.OK
}

// GetDents appends a directory's entries to dst (unsorted, exactly as
// the FS returns them; see vfs.FS.ReadDir).
func (k *Kernel) GetDents(path string, dst []vfs.DirEntry) ([]vfs.DirEntry, errno.Errno) {
	defer k.begin("getdents").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return dst, e
	}
	if !r.exists {
		return dst, errno.ENOENT
	}
	return r.mount.fs.ReadDir(r.ino, dst)
}

// Statfs reports file system usage.
func (k *Kernel) Statfs(path string) (vfs.StatFS, errno.Errno) {
	defer k.begin("statfs").End()
	m, _, e := k.MountAt(path)
	if e != errno.OK {
		return vfs.StatFS{}, e
	}
	return m.fs.StatFS()
}

// SyncFS flushes the file system containing path.
func (k *Kernel) SyncFS(path string) errno.Errno {
	defer k.begin("syncfs").End()
	m, _, e := k.MountAt(path)
	if e != errno.OK {
		return e
	}
	return m.fs.Sync()
}

// Ioctl dispatches an ioctl on path: the three checkpoint commands
// route to the file system's Checkpointer (§5); anything else, or a file
// system without one, is ENOTSUP.
func (k *Kernel) Ioctl(path string, cmd uint32, arg uint64) errno.Errno {
	defer k.begin("ioctl").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	cp := r.mount.cp
	if cp == nil {
		return errno.ENOTSUP
	}
	switch cmd {
	case vfs.IoctlCheckpoint:
		return cp.CheckpointState(arg)
	case vfs.IoctlRestore:
		return cp.RestoreState(arg)
	case vfs.IoctlDiscard:
		return cp.DiscardState(arg)
	}
	return errno.ENOTSUP
}

// SetXattr sets an extended attribute.
func (k *Kernel) SetXattr(path, name string, value []byte) errno.Errno {
	defer k.begin("setxattr").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	if r.mount.xattr == nil {
		return errno.ENOTSUP
	}
	if e := r.mount.xattr.SetXattr(r.ino, name, value); e != errno.OK {
		return e
	}
	r.mount.attrDirty(r.ino)
	return errno.OK
}

// GetXattr reads an extended attribute.
func (k *Kernel) GetXattr(path, name string) ([]byte, errno.Errno) {
	defer k.begin("getxattr").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return nil, e
	}
	if !r.exists {
		return nil, errno.ENOENT
	}
	if r.mount.xattr == nil {
		return nil, errno.ENOTSUP
	}
	return r.mount.xattr.GetXattr(r.ino, name)
}

// ListXattr lists extended attribute names.
func (k *Kernel) ListXattr(path string) ([]string, errno.Errno) {
	defer k.begin("listxattr").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return nil, e
	}
	if !r.exists {
		return nil, errno.ENOENT
	}
	if r.mount.xattr == nil {
		return nil, errno.ENOTSUP
	}
	return r.mount.xattr.ListXattr(r.ino)
}

// RemoveXattr deletes an extended attribute.
func (k *Kernel) RemoveXattr(path, name string) errno.Errno {
	defer k.begin("removexattr").End()
	r, e := k.resolve(path, true)
	if e != errno.OK {
		return e
	}
	if !r.exists {
		return errno.ENOENT
	}
	if r.mount.xattr == nil {
		return errno.ENOTSUP
	}
	if e := r.mount.xattr.RemoveXattr(r.ino, name); e != errno.OK {
		return e
	}
	r.mount.attrDirty(r.ino)
	return errno.OK
}

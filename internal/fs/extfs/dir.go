package extfs

import (
	"encoding/binary"

	"mcfs/internal/errno"
)

// Directory contents are packed dirent lists inside data blocks. Entries
// never span blocks; a zero inode number terminates a block's used
// region. Directories only ever grow (size stays a multiple of BlockSize
// and is never reduced by deletions) — real ext2/ext4 behaves the same
// way, which is why the checker must ignore directory sizes (§3.4).

// dirScan walks the packed entries of one directory block in place: a
// cursor over the block's bytes that allocates nothing. It stops at a zero
// inode number, or at an entry whose name would run past the block (a
// corrupt tail; fsck flags what it leaves unreachable).
type dirScan struct {
	buf  []byte
	off  int    // the current entry's offset
	end  int    // the offset just past the current entry: the bytes used so far
	ino  uint32 // the current entry's inode
	name []byte // the current entry's name, aliasing buf
}

func scanDirBlock(buf []byte) dirScan { return dirScan{buf: buf} }

// next moves to the following entry, reporting false at the end of the
// used region; end then stays the number of bytes the entries occupy.
func (s *dirScan) next() bool {
	le := binary.LittleEndian
	pos := s.end
	if pos+direntHeader > len(s.buf) {
		return false
	}
	ino := le.Uint32(s.buf[pos:])
	if ino == 0 {
		return false
	}
	nameLen := int(le.Uint16(s.buf[pos+4:]))
	if pos+direntHeader+nameLen > len(s.buf) {
		return false
	}
	s.off, s.end, s.ino = pos, pos+direntHeader+nameLen, ino
	s.name = s.buf[pos+direntHeader : s.end]
	return true
}

// find moves to the next entry called name, reporting whether there is one.
func (s *dirScan) find(name string) bool {
	for s.next() {
		if string(s.name) == name {
			return true
		}
	}
	return false
}

// dirBlocks returns the allocated block list of a directory, in the
// mount's list buffer: valid until the next dirBlocks.
func (f *FS) dirBlocks(ci *cachedInode) ([]uint32, errno.Errno) {
	n := int(ci.size) / BlockSize
	blocks := f.bufs.dirBlocks[:0]
	for i := 0; i < n; i++ {
		blk, e := f.blockForIndex(ci, i, false)
		if e != errno.OK {
			return nil, e
		}
		if blk != 0 {
			blocks = append(blocks, blk)
		}
	}
	f.bufs.dirBlocks = blocks
	return blocks, errno.OK
}

// findEntry locates name in the directory, returning its inode and the
// block that holds it.
func (f *FS) findEntry(ci *cachedInode, name string) (ino uint32, blk uint32, found bool, e errno.Errno) {
	blocks, e := f.dirBlocks(ci)
	if e != errno.OK {
		return 0, 0, false, e
	}
	for _, b := range blocks {
		buf, err := f.readBlock(b)
		if err != nil {
			return 0, 0, false, errno.EIO
		}
		if s := scanDirBlock(buf); s.find(name) {
			return s.ino, b, true, errno.OK
		}
	}
	return 0, 0, false, errno.OK
}

// blockUsed returns the number of bytes occupied by packed entries.
func blockUsed(buf []byte) int {
	s := scanDirBlock(buf)
	for s.next() {
	}
	return s.end
}

// addDirEntry appends (name -> ino) to the directory, growing it by a
// block if no existing block has room.
func (f *FS) addDirEntry(ci *cachedInode, ino uint32, name string) errno.Errno {
	need := direntLen(name)
	blocks, e := f.dirBlocks(ci)
	if e != errno.OK {
		return e
	}
	for _, b := range blocks {
		buf, err := f.readBlock(b)
		if err != nil {
			return errno.EIO
		}
		used := blockUsed(buf)
		if used+need <= BlockSize {
			encodeDirent(buf[used:], ino, name)
			f.writeMetaBlock(b, buf)
			return errno.OK
		}
	}
	// Grow the directory by one block.
	idx := int(ci.size) / BlockSize
	blk, e := f.blockForIndex(ci, idx, true)
	if e != errno.OK {
		return e
	}
	buf := f.blankBlock()
	encodeDirent(buf, ino, name)
	f.writeMetaBlock(blk, buf)
	ci.size += BlockSize // ext directory sizes grow in whole blocks
	f.markDirty(ci)
	return errno.OK
}

// editDirEntry finds the first entry called name and edits its block in
// place: it removes the entry, shifting the entries after it left, or,
// when remove is false, points it at newIno. Everything after the last
// kept entry is zeroed, so the staged block holds exactly the re-encode
// of the kept entries into a blank block. The directory's size is never
// reduced.
func (f *FS) editDirEntry(ci *cachedInode, name string, remove bool, newIno uint32) errno.Errno {
	blocks, e := f.dirBlocks(ci)
	if e != errno.OK {
		return e
	}
	for _, b := range blocks {
		buf, err := f.readBlock(b)
		if err != nil {
			return errno.EIO
		}
		s := scanDirBlock(buf)
		if !s.find(name) {
			continue
		}
		off, end := s.off, s.end
		for s.next() {
		}
		used := s.end
		if remove {
			copy(buf[off:], buf[end:used])
			used -= end - off
		} else {
			binary.LittleEndian.PutUint32(buf[off:], newIno)
		}
		clear(buf[used:])
		f.writeMetaBlock(b, buf)
		return errno.OK
	}
	return errno.ENOENT
}

// removeDirEntry deletes name from the directory, compacting its block.
func (f *FS) removeDirEntry(ci *cachedInode, name string) errno.Errno {
	return f.editDirEntry(ci, name, true, 0)
}

// replaceDirEntry rewrites the inode an existing entry points at.
func (f *FS) replaceDirEntry(ci *cachedInode, name string, newIno uint32) errno.Errno {
	return f.editDirEntry(ci, name, false, newIno)
}

// dirEntryCount returns the number of entries in the directory excluding
// the on-disk "." and ".." entries. It reads every block, as a listing
// does.
func (f *FS) dirEntryCount(ci *cachedInode) (int, errno.Errno) {
	blocks, e := f.dirBlocks(ci)
	if e != errno.OK {
		return 0, e
	}
	n := 0
	for _, b := range blocks {
		buf, err := f.readBlock(b)
		if err != nil {
			return 0, errno.EIO
		}
		for s := scanDirBlock(buf); s.next(); {
			if string(s.name) != "." && string(s.name) != ".." {
				n++
			}
		}
	}
	return n, errno.OK
}

package extfs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mcfs/internal/blockdev"
	"mcfs/internal/vfs"
)

// Problem is one inconsistency found by Fsck.
type Problem struct {
	// Code classifies the problem, e.g. "dangling-entry".
	Code string
	// Detail is a human-readable description.
	Detail string
}

func (p Problem) String() string { return p.Code + ": " + p.Detail }

// Fsck validates the on-disk state of an unmounted volume and returns the
// inconsistencies found. It reproduces
// the checks that exposed the paper's §3.2 failure mode: after MCFS
// restored a disk image underneath live kernel caches, "directory entries
// with corrupted or zeroed inodes" appeared — exactly the dangling-entry
// and zeroed-inode problems below.
//
// Checks performed:
//   - every directory entry points to an allocated inode (dangling-entry)
//   - no referenced inode record is all zeroes (zeroed-inode)
//   - each directory has "." and ".." entries ("missing-dot")
//   - inode link counts match the number of referencing entries
//     (bad-nlink)
//   - no inode maps a block outside the volume (block-out-of-range)
//   - every reachable file/dir block is marked used in the block bitmap
//     (block-not-marked), and no block is referenced by two different
//     inodes (block-shared; multiple directory entries naming the same
//     inode — hard links — share its blocks legitimately)
//   - allocated inodes are reachable from the root (orphan-inode)
//
// A device read error aborts the check and is returned as the error —
// never as a clean verdict: a faulted read must not make a corrupt image
// look consistent.
//
// Every block is read from the device at most once, in a fixed order:
// superblock, bitmaps, the whole inode table, then each directory's
// indirect and data blocks breadth-first, then each file's indirect
// block in discovery order. The virtual clock and the fault plane's read
// rules see exactly that sequence. The check runs in one goroutine: on
// the 256 KiB volumes MCFS formats, a worker pool over the in-memory
// passes measured slower than this loop at every width.
func Fsck(dev blockdev.Device) ([]Problem, error) {
	f := &fsckRun{
		dev:    dev,
		blocks: make(map[uint32][]byte),
		refs:   make(map[uint32]uint32),
		seen:   map[uint32]bool{RootIno: true},
		dirs:   []uint32{RootIno},
	}
	sbBuf, err := f.load(0)
	if err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(sbBuf)
	if err != nil {
		return []Problem{{Code: "bad-superblock", Detail: err.Error()}}, nil
	}
	f.sb = sb
	f.l = computeLayout(sb.blocksTotal, sb.inodesTotal, sb.journalLen)
	// Geometry sanity: the bitmaps are one block each and the declared
	// regions must fit the device, or every later pointer check would be
	// judging against garbage.
	if int64(sb.blocksTotal)*BlockSize > dev.Size() ||
		sb.blocksTotal > BlockSize*8 || sb.inodesTotal > BlockSize*8 ||
		f.l.firstData > sb.blocksTotal {
		return []Problem{{
			Code: "bad-superblock",
			Detail: fmt.Sprintf("geometry does not fit device: %d blocks, %d inodes, device %d bytes",
				sb.blocksTotal, sb.inodesTotal, dev.Size()),
		}}, nil
	}

	if f.blockBitmap, err = f.load(f.l.blockBitmap); err != nil {
		return nil, err
	}
	if f.inodeBitmap, err = f.load(f.l.inodeBitmap); err != nil {
		return nil, err
	}
	// Read the whole inode table once; every later inode decode is a
	// slice of it.
	for b := uint32(0); b < f.l.inodeBlocks; b++ {
		if _, err := f.load(f.l.inodeTable + b); err != nil {
			return nil, err
		}
	}

	if root := f.inode(RootIno); !vfs.Mode(root.mode).IsDir() {
		f.report("bad-root", "root inode is not a directory (mode %#x)", root.mode)
		return f.problems, nil
	}

	// Pass 1: the directory tree, breadth-first. dirs grows as checkDir
	// discovers subdirectories; files collects the non-directories in
	// discovery order, each once however many entries name it.
	blockRefs := make(map[uint32]int) // block -> owning-inode reference count
	for i := 0; i < len(f.dirs); i++ {
		bl, err := f.blocksOf(f.dirs[i], "dir inode")
		if err != nil {
			return nil, err
		}
		if err := f.checkDir(f.dirs[i], bl); err != nil {
			return nil, err
		}
		for _, blk := range bl.refs {
			blockRefs[blk]++
		}
	}

	// Pass 2: block accounting for every reachable file. Each file's
	// blocks are counted once no matter how many directory entries (hard
	// links) name it.
	for _, ino := range f.files {
		bl, err := f.blocksOf(ino, "inode")
		if err != nil {
			return nil, err
		}
		for _, blk := range bl.refs {
			if !bitmapGet(f.blockBitmap, blk) {
				f.report("block-not-marked", "inode %d uses block %d not marked in bitmap", ino, blk)
			}
			blockRefs[blk]++
		}
	}

	// Shared blocks: any block referenced by more than one inode. Report
	// in block order so the problem list is stable across runs (blockRefs
	// is a map).
	var sharedBlocks []uint32
	for blk, n := range blockRefs {
		if n > 1 {
			sharedBlocks = append(sharedBlocks, blk)
		}
	}
	sort.Slice(sharedBlocks, func(i, j int) bool { return sharedBlocks[i] < sharedBlocks[j] })
	for _, blk := range sharedBlocks {
		f.report("block-shared", "block %d referenced %d times", blk, blockRefs[blk])
	}

	// Pass 3: the linear inode scan — link counts and orphans.
	// Directories are checked loosely (their nlink also counts
	// subdirectory ".." references).
	for ino := uint32(FirstFreeIno); ino <= f.sb.inodesTotal; ino++ {
		if !bitmapGet(f.inodeBitmap, ino) {
			continue
		}
		nd := f.inode(ino)
		n, reachable := f.refs[ino]
		if !reachable {
			f.report("orphan-inode", "inode %d allocated but unreachable", ino)
		} else if !vfs.Mode(nd.mode).IsDir() && nd.nlink != n {
			f.report("bad-nlink", "inode %d nlink %d but %d references", ino, nd.nlink, n)
		}
	}
	return f.problems, nil
}

// fsckRun is one Fsck invocation's state.
type fsckRun struct {
	dev    blockdev.Device
	blocks map[uint32][]byte // every block read so far: the single-read view of the device
	sb     *superblock
	l      layout

	blockBitmap []byte
	inodeBitmap []byte

	problems []Problem
	refs     map[uint32]uint32 // inode -> referencing entry count
	seen     map[uint32]bool   // directories and files already queued
	dirs     []uint32          // the breadth-first directory queue
	files    []uint32          // discovery-ordered file inodes
}

func (f *fsckRun) report(code, format string, args ...any) {
	f.problems = append(f.problems, Problem{Code: code, Detail: fmt.Sprintf(format, args...)})
}

// load returns blk's contents, reading it from the device on first use.
func (f *fsckRun) load(blk uint32) ([]byte, error) {
	if buf, ok := f.blocks[blk]; ok {
		return buf, nil
	}
	buf := make([]byte, BlockSize)
	if err := f.dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
		return nil, err
	}
	f.blocks[blk] = buf
	return buf, nil
}

// inode decodes an inode record from the loaded table: the zero inode
// when ino lies outside it, which only a superblock declaring fewer
// inodes than the root's number can cause — callers validate every other
// number against the superblock first.
func (f *fsckRun) inode(ino uint32) onDiskInode {
	buf := f.blocks[f.l.inodeTable+(ino-1)/InodesPerBlock]
	if buf == nil {
		return onDiskInode{}
	}
	off := ((ino - 1) % InodesPerBlock) * InodeSize
	return decodeInode(buf[off : off+InodeSize])
}

// inodeBlocks is the block set one inode maps: refs is every block the
// inode ties down in the bitmap (data blocks plus the indirect pointer
// block itself), data is just the data blocks, in file order.
type inodeBlocks struct {
	refs []uint32
	data []uint32
}

// blocksOf gathers ino's blocks, reading its indirect block. A pointer
// outside the volume is reported as a problem and excluded — judging it
// against the bitmap would be meaningless — and a device error reading
// the indirect block propagates instead of truncating the list: a
// faulted read must surface as an fsck failure, not a clean partial
// check. what names the inode's role in problem details ("dir inode" /
// "inode").
func (f *fsckRun) blocksOf(ino uint32, what string) (inodeBlocks, error) {
	var bl inodeBlocks
	nd := f.inode(ino)
	add := func(blk uint32, data bool) bool {
		if blk >= f.sb.blocksTotal {
			f.report("block-out-of-range", "%s %d references block %d beyond volume (%d blocks)", what, ino, blk, f.sb.blocksTotal)
			return false
		}
		bl.refs = append(bl.refs, blk)
		if data {
			bl.data = append(bl.data, blk)
		}
		return true
	}
	for _, d := range nd.direct {
		if d != 0 {
			add(d, true)
		}
	}
	if nd.indir != 0 && add(nd.indir, false) {
		buf, err := f.load(nd.indir)
		if err != nil {
			return bl, fmt.Errorf("extfs: fsck: reading indirect block %d of %s %d: %w", nd.indir, what, ino, err)
		}
		for i := 0; i < PtrsPerBlock; i++ {
			if blk := binary.LittleEndian.Uint32(buf[i*4:]); blk != 0 {
				add(blk, true)
			}
		}
	}
	return bl, nil
}

// checkDir runs every check for one directory: bitmap marks for its
// blocks, then the paper's §3.2 entry checks, queueing the children it
// finds.
func (f *fsckRun) checkDir(dir uint32, bl inodeBlocks) error {
	for _, blk := range bl.data {
		if _, err := f.load(blk); err != nil {
			return err
		}
	}
	for _, blk := range bl.refs {
		if !bitmapGet(f.blockBitmap, blk) {
			f.report("block-not-marked", "dir inode %d uses block %d not marked in bitmap", dir, blk)
		}
	}
	var haveDot, haveDotDot bool
	for _, blk := range bl.data {
		for _, de := range parseDirBlock(f.blocks[blk]) {
			switch de.name {
			case ".":
				haveDot = true
				continue
			case "..":
				haveDotDot = true
				continue
			}
			if de.ino == 0 || de.ino > f.sb.inodesTotal {
				f.report("dangling-entry", "dir %d entry %q points to invalid inode %d", dir, de.name, de.ino)
				continue
			}
			if !bitmapGet(f.inodeBitmap, de.ino) {
				f.report("dangling-entry", "dir %d entry %q points to free inode %d", dir, de.name, de.ino)
				continue
			}
			child := f.inode(de.ino)
			if child.mode == 0 && child.nlink == 0 {
				f.report("zeroed-inode", "dir %d entry %q points to zeroed inode %d", dir, de.name, de.ino)
				continue
			}
			f.refs[de.ino]++
			if f.seen[de.ino] {
				continue
			}
			f.seen[de.ino] = true
			if vfs.Mode(child.mode).IsDir() {
				f.dirs = append(f.dirs, de.ino)
			} else {
				f.files = append(f.files, de.ino)
			}
		}
	}
	if !haveDot || !haveDotDot {
		f.report("missing-dot", "dir inode %d lacks . or ..", dir)
	}
	return nil
}

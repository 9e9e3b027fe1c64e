package extfs

import (
	"errors"
	"slices"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/vfs"
)

// Fsck tests: the checker must report what the recorded oracle reports,
// must not let a faulted device read pass as a clean verdict, and must
// survive corrupt pointers without panicking.

// messyVolume builds an unmounted image with one of every problem class:
// a shared block, an orphan inode, a bad link count, nested directories,
// and a legitimate hard link that must NOT be reported.
func messyVolume(t *testing.T) blockdev.Device {
	t.Helper()
	f, dev, _ := newVolume(t, MkfsOptions{})
	sub := mustMkdir(t, f, f.Root(), "sub")
	deep := mustMkdir(t, f, sub, "deep")
	a := mustCreate(t, f, f.Root(), "a")
	b := mustCreate(t, f, sub, "b")
	c := mustCreate(t, f, deep, "c")
	mustCreate(t, f, f.Root(), "lost")
	for i, ino := range []vfs.Ino{a, b, c} {
		if _, e := f.Write(ino, 0, []byte{byte('a' + i), byte('a' + i), byte('a' + i)}); e != errno.OK {
			t.Fatal(e)
		}
	}
	if e := f.Link(c, deep, "c-alias"); e != errno.OK {
		t.Fatal(e)
	}
	// Corruption 1: b's first block aliases a's first block.
	bi := f.getInode(uint32(b))
	bi.direct[0] = f.getInode(uint32(a)).direct[0]
	f.markDirty(bi)
	// Corruption 2: orphan — drop lost's directory entry, keep the inode.
	if e := f.removeDirEntry(f.getInode(RootIno), "lost"); e != errno.OK {
		t.Fatal(e)
	}
	// Corruption 3: b lies about its link count.
	bi.nlink = 9
	f.markDirty(bi)
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	return dev
}

func codeCounts(probs []Problem) map[string]int {
	m := make(map[string]int)
	for _, p := range probs {
		m[p.Code]++
	}
	return m
}

func TestFsckParallelCleanImage(t *testing.T) {
	f, dev, _ := newVolume(t, MkfsOptions{Journal: true})
	sub := mustMkdir(t, f, f.Root(), "sub")
	ino := mustCreate(t, f, sub, "file")
	if _, e := f.Write(ino, 0, make([]byte, 3*BlockSize)); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	probs, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		t.Errorf("clean image problem: %v", p)
	}
}

// sharedBlockVolume: b's first block aliases a's.
func sharedBlockVolume(t *testing.T) blockdev.Device {
	t.Helper()
	f, dev, _ := newVolume(t, MkfsOptions{})
	a := mustCreate(t, f, f.Root(), "a")
	b := mustCreate(t, f, f.Root(), "b")
	if _, e := f.Write(a, 0, []byte("aaa")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(b, 0, []byte("bbb")); e != errno.OK {
		t.Fatal(e)
	}
	bi := f.getInode(uint32(b))
	bi.direct[0] = f.getInode(uint32(a)).direct[0]
	f.markDirty(bi)
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestFsckParallelSharedBlockImage(t *testing.T) {
	probs, err := Fsck(sharedBlockVolume(t))
	if err != nil {
		t.Fatal(err)
	}
	if codeCounts(probs)["block-shared"] == 0 {
		t.Errorf("fsck missed shared block: %v", probs)
	}
}

// orphanVolume: victim's inode stays allocated with no entry naming it.
func orphanVolume(t *testing.T) blockdev.Device {
	t.Helper()
	f, dev, _ := newVolume(t, MkfsOptions{})
	mustCreate(t, f, f.Root(), "victim")
	if e := f.removeDirEntry(f.getInode(RootIno), "victim"); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestFsckParallelOrphanImage(t *testing.T) {
	probs, err := Fsck(orphanVolume(t))
	if err != nil {
		t.Fatal(err)
	}
	if codeCounts(probs)["orphan-inode"] == 0 {
		t.Errorf("fsck missed orphan: %v", probs)
	}
}

func TestFsckHardLinkedBlocksNotShared(t *testing.T) {
	// Two directory entries naming one inode share its blocks by design;
	// the old per-entry accounting reported them as block-shared.
	f, dev, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "orig")
	if _, e := f.Write(ino, 0, []byte("payload")); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.Link(ino, f.Root(), "alias"); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	probs, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		t.Errorf("hard-linked file reported: %v", p)
	}
}

var errMediaFault = errors.New("media read fault")

// faultedIndirectVolume: a clean volume whose one indirect block fails
// every read until the returned injector's rules are cleared.
func faultedIndirectVolume(t *testing.T) (blockdev.Device, *fault.Injector) {
	t.Helper()
	f, dev, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "big")
	if _, e := f.Write(ino, 0, make([]byte, (NumDirect+2)*BlockSize)); e != errno.OK {
		t.Fatal(e)
	}
	indir := f.getInode(uint32(ino)).indir
	if indir == 0 {
		t.Fatal("big file has no indirect block")
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	dev.(*blockdev.Disk).SetInjector(inj)
	inj.AddRule(fault.Rule{
		Kind: fault.KindReadError,
		Off:  int64(indir) * BlockSize,
		Len:  BlockSize,
		Err:  errMediaFault,
	})
	return dev, inj
}

func TestFsckFaultedIndirectReadSurfacesError(t *testing.T) {
	// A read fault on an inode's indirect block must abort fsck with an
	// error — the old collectBlocks swallowed it and returned a partial
	// block list, letting corrupt images pass as clean.
	dev, inj := faultedIndirectVolume(t)
	if _, err := Fsck(dev); !errors.Is(err, errMediaFault) {
		t.Errorf("Fsck with faulted indirect read = %v, want the media fault surfaced", err)
	}
	inj.ClearRules()
	probs, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		t.Errorf("problem after fault cleared: %v", p)
	}
}

// wildPointerVolume: one inode with a direct and an indirect pointer
// beyond the volume.
func wildPointerVolume(t *testing.T) blockdev.Device {
	t.Helper()
	f, dev, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "wild")
	ci := f.getInode(uint32(ino))
	ci.direct[0] = 0xFFFF0000
	ci.indir = 0xFFFF1111
	f.markDirty(ci)
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestFsckOutOfRangeBlockPointer(t *testing.T) {
	// A wild block pointer (beyond the volume) must be reported, not
	// dereferenced or judged against the bitmap (which would panic).
	probs, err := Fsck(wildPointerVolume(t))
	if err != nil {
		t.Fatal(err)
	}
	if codeCounts(probs)["block-out-of-range"] != 2 {
		t.Errorf("block-out-of-range count = %d, want 2: %v", codeCounts(probs)["block-out-of-range"], probs)
	}
}

func TestStateCompareMask(t *testing.T) {
	_, dev, _ := newVolume(t, MkfsOptions{Journal: true})
	mask, err := StateCompareMask(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Flags word, mount counter, journal region.
	if len(mask) != 3 {
		t.Fatalf("journal volume mask = %v, want 3 regions", mask)
	}
	if mask[0] != (fault.Region{Off: sbFlagsOff, Len: 4}) ||
		mask[1] != (fault.Region{Off: sbMountCntOff, Len: 4}) {
		t.Errorf("superblock mask regions = %v", mask[:2])
	}
	if mask[2].Len != int64(DefaultJournalBlocks)*BlockSize {
		t.Errorf("journal mask region = %v, want %d bytes", mask[2], DefaultJournalBlocks*BlockSize)
	}

	_, plain, _ := newVolume(t, MkfsOptions{})
	mask, err = StateCompareMask(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(mask) != 2 {
		t.Errorf("journalless volume mask = %v, want 2 regions", mask)
	}
}

// scrambledVolume corrupts a three-level tree on disk, after a clean
// unmount, so that one check reports from every stage of the walk: an
// unmarked directory block and a zeroed inode at the root level, a
// dangling entry two levels down, an unmarked file block in the block
// accounting pass, and an orphan in the inode scan.
func scrambledVolume(t *testing.T) blockdev.Device {
	t.Helper()
	f, dev, _ := newVolume(t, MkfsOptions{})
	sub := mustMkdir(t, f, f.Root(), "sub")
	deep := mustMkdir(t, f, sub, "deep")
	a := mustCreate(t, f, f.Root(), "a")
	b := mustCreate(t, f, sub, "b")
	c := mustCreate(t, f, deep, "c")
	big := mustCreate(t, f, deep, "big")
	mustCreate(t, f, f.Root(), "lost")
	if _, e := f.Write(b, 0, []byte("bbb")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(big, 0, make([]byte, (NumDirect+2)*BlockSize)); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.removeDirEntry(f.getInode(RootIno), "lost"); e != errno.OK {
		t.Fatal(e)
	}
	subBlock := f.getInode(uint32(sub)).direct[0]
	bBlock := f.getInode(uint32(b)).direct[0]
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	l := computeLayout(f.sb.blocksTotal, f.sb.inodesTotal, f.sb.journalLen)
	edit := func(blk uint32, fn func(buf []byte)) {
		buf := make([]byte, BlockSize)
		if err := dev.ReadAt(buf, int64(blk)*BlockSize); err != nil {
			t.Fatal(err)
		}
		fn(buf)
		if err := dev.WriteAt(buf, int64(blk)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	edit(l.blockBitmap, func(bm []byte) {
		bitmapClear(bm, subBlock)
		bitmapClear(bm, bBlock)
	})
	edit(l.inodeBitmap, func(bm []byte) { bitmapClear(bm, uint32(c)) })
	edit(l.inodeTable+(uint32(a)-1)/InodesPerBlock, func(tbl []byte) {
		off := ((uint32(a) - 1) % InodesPerBlock) * InodeSize
		clear(tbl[off : off+InodeSize])
	})
	return dev
}

// readLog records the block number of every device read.
type readLog struct {
	blockdev.Device
	blocks []int64
}

func (r *readLog) ReadAt(p []byte, off int64) error {
	r.blocks = append(r.blocks, off/BlockSize)
	return r.Device.ReadAt(p, off)
}

// TestFsckMatchesRecordedOracle holds Fsck to what the worker-pool
// implementation it replaced reported for the corrupt fixtures — the
// same problems in the same order, the same error — and to the device
// reads it issued: one per block, in the same sequence, because the
// virtual clock and the fault plane's read rules see every one.
func TestFsckMatchesRecordedOracle(t *testing.T) {
	seq := func(lo, hi int64) []int64 {
		var s []int64
		for b := lo; b <= hi; b++ {
			s = append(s, b)
		}
		return s
	}
	faulted, _ := faultedIndirectVolume(t)
	for _, tc := range []struct {
		name    string
		dev     blockdev.Device
		want    []string
		wantErr string
		reads   []int64
	}{
		{name: "messy", dev: messyVolume(t), reads: seq(0, 14), want: []string{
			"block-shared: block 15 referenced 2 times",
			"bad-nlink: inode 7 nlink 9 but 1 references",
			"orphan-inode: inode 9 allocated but unreachable",
		}},
		{name: "shared-block", dev: sharedBlockVolume(t), reads: seq(0, 12), want: []string{
			"block-shared: block 13 referenced 2 times",
		}},
		{name: "orphan", dev: orphanVolume(t), reads: seq(0, 12), want: []string{
			"orphan-inode: inode 4 allocated but unreachable",
		}},
		{name: "wild-pointer", dev: wildPointerVolume(t), reads: seq(0, 12), want: []string{
			"block-out-of-range: inode 4 references block 4294901760 beyond volume (256 blocks)",
			"block-out-of-range: inode 4 references block 4294906129 beyond volume (256 blocks)",
		}},
		{name: "scrambled", dev: scrambledVolume(t), reads: append(seq(0, 14), 28), want: []string{
			`zeroed-inode: dir 2 entry "a" points to zeroed inode 6`,
			"block-not-marked: dir inode 4 uses block 13 not marked in bitmap",
			`dangling-entry: dir 5 entry "c" points to free inode 8`,
			"block-not-marked: inode 7 uses block 15 not marked in bitmap",
			"orphan-inode: inode 6 allocated but unreachable",
			"orphan-inode: inode 10 allocated but unreachable",
		}},
		{name: "faulted-indirect", dev: faulted, reads: append(seq(0, 12), 25),
			wantErr: "extfs: fsck: reading indirect block 25 of inode 4: media read fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &readLog{Device: tc.dev}
			probs, err := Fsck(log)
			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			if gotErr != tc.wantErr {
				t.Fatalf("Fsck error = %q, want %q", gotErr, tc.wantErr)
			}
			got := make([]string, len(probs))
			for i, p := range probs {
				got[i] = p.String()
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("problems:\n%q\nwant:\n%q", got, tc.want)
			}
			if !slices.Equal(log.blocks, tc.reads) {
				t.Errorf("device reads (blocks) = %v, want %v", log.blocks, tc.reads)
			}
		})
	}
}

package extfs

import (
	"errors"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// Failure-injection tests: extfs must degrade to EIO (never panic or
// corrupt silently) when the device rejects writes, and must follow the
// POSIX ENOSPC contract as space runs out.

// failWrites makes every write (and restore) on dev fail until the
// returned function is called.
func failWrites(dev *blockdev.Disk) (clear func()) {
	inj := fault.New()
	dev.SetInjector(inj)
	inj.AddRule(fault.Rule{Kind: fault.KindError, AtWrite: -1, Err: errors.New("injected write fault"), AlwaysOn: true})
	return inj.ClearRules
}

func TestWriteFaultSurfacesEIO(t *testing.T) {
	clk := simclock.New()
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	ino := mustCreate(t, f, f.Root(), "file")
	clearFault := failWrites(dev)
	if _, e := f.Write(ino, 0, []byte("data")); e != errno.EIO {
		t.Errorf("write with failing device = %v, want EIO", e)
	}
	// Sync must also surface the failure rather than silently dropping
	// dirty metadata.
	if e := f.Sync(); e != errno.EIO {
		t.Errorf("sync with failing device = %v, want EIO", e)
	}
	clearFault()
	if e := f.Sync(); e != errno.OK {
		t.Errorf("sync after fault cleared = %v", e)
	}
	if _, e := f.Write(ino, 0, []byte("data")); e != errno.OK {
		t.Errorf("write after fault cleared = %v", e)
	}
}

func TestMkdirFaultDuringDirBlockWrite(t *testing.T) {
	clk := simclock.New()
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	clearFault := failWrites(dev)
	if _, e := f.Mkdir(f.Root(), "dir", 0755, 0, 0); e != errno.EIO {
		t.Errorf("mkdir with failing device = %v, want EIO", e)
	}
	clearFault()
	// The namespace must not contain a half-created directory.
	if _, e := f.Lookup(f.Root(), "dir"); e != errno.ENOENT {
		t.Errorf("half-created dir visible: %v", e)
	}
	// And the volume must still work.
	if _, e := f.Mkdir(f.Root(), "dir", 0755, 0, 0); e != errno.OK {
		t.Errorf("mkdir after fault = %v", e)
	}
}

func TestENOSPCExactlyAtCapacity(t *testing.T) {
	f, _, _ := newVolume(t, MkfsOptions{})
	st, _ := f.StatFS()
	ino := mustCreate(t, f, f.Root(), "filler")
	// A single write of exactly the free space must either succeed or
	// fail ENOSPC (indirect blocks consume some), but never EIO/panic.
	free := st.FreeBlocks * BlockSize
	if free > int64(MaxFileBlocks)*BlockSize {
		free = int64(MaxFileBlocks) * BlockSize
	}
	_, e := f.Write(ino, 0, make([]byte, free))
	if e != errno.OK && e != errno.ENOSPC {
		t.Errorf("exact-capacity write = %v", e)
	}
	// Whatever happened, metadata must stay consistent.
	if e := f.Sync(); e != errno.OK {
		t.Fatalf("sync after capacity test: %v", e)
	}
}

func TestFsckDetectsSharedBlock(t *testing.T) {
	f, dev, _ := newVolume(t, MkfsOptions{})
	a := mustCreate(t, f, f.Root(), "a")
	b := mustCreate(t, f, f.Root(), "b")
	if _, e := f.Write(a, 0, []byte("aaa")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(b, 0, []byte("bbb")); e != errno.OK {
		t.Fatal(e)
	}
	// Corrupt: point b's first block at a's first block, directly in the
	// on-disk inode table.
	aBlk := f.getInode(uint32(a)).direct[0]
	bi := f.getInode(uint32(b))
	bi.direct[0] = aBlk
	f.markDirty(bi)
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	problems, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range problems {
		if p.Code == "block-shared" {
			found = true
		}
	}
	if !found {
		t.Errorf("Fsck missed shared block: %v", problems)
	}
}

func TestFsckDetectsOrphanInode(t *testing.T) {
	f, dev, _ := newVolume(t, MkfsOptions{})
	mustCreate(t, f, f.Root(), "victim")
	// Remove the directory entry directly, leaving the inode allocated.
	root := f.getInode(RootIno)
	if e := f.removeDirEntry(root, "victim"); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	problems, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range problems {
		if p.Code == "orphan-inode" {
			found = true
		}
	}
	if !found {
		t.Errorf("Fsck missed orphan inode: %v", problems)
	}
}

func TestFsckDetectsBadNlink(t *testing.T) {
	f, dev, _ := newVolume(t, MkfsOptions{})
	ino := mustCreate(t, f, f.Root(), "file")
	ci := f.getInode(uint32(ino))
	ci.nlink = 7 // lie
	f.markDirty(ci)
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	problems, err := Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range problems {
		if p.Code == "bad-nlink" {
			found = true
		}
	}
	if !found {
		t.Errorf("Fsck missed bad nlink: %v", problems)
	}
}

func TestHardLinkCountPersistsAcrossRemount(t *testing.T) {
	f, dev, clk := newVolume(t, MkfsOptions{Journal: true})
	ino := mustCreate(t, f, f.Root(), "orig")
	if e := f.Link(ino, f.Root(), "alias1"); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.Link(ino, f.Root(), "alias2"); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(dev, clk)
	if err != nil {
		t.Fatal(err)
	}
	st, e := f2.Getattr(ino)
	if e != errno.OK || st.Nlink != 3 {
		t.Errorf("nlink after remount = %d, want 3", st.Nlink)
	}
	problems, err2 := Fsck(dev)
	if err2 != nil {
		t.Fatal(err2)
	}
	// Volume is mounted-dirty (f2 not unmounted) but structurally sound.
	for _, p := range problems {
		t.Errorf("unexpected problem: %v", p)
	}
	_ = vfs.Mode(0) // keep the vfs import honest if assertions change
}

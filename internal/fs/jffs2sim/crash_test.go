package jffs2sim

import (
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/vfs"
)

// Torn-write recovery tests: a power cut mid-program leaves a prefix of a
// log node on flash. The mount-time scan must detect the torn node via
// its CRC, drop it (and seal the block), and come up with the state as of
// the last complete node — never an error, never a corrupted namespace.

// tornAppend runs op with a torn-write rule active on the MTD's fault
// plane: the idx-th program during op persists only persist bytes.
func tornAppend(t *testing.T, mtd *blockdev.MTD, idx, persist int, op func()) {
	t.Helper()
	inj := fault.New()
	mtd.SetInjector(inj)
	defer mtd.SetInjector(nil)
	inj.AddRule(fault.Rule{Kind: fault.KindTorn, AtWrite: idx, PersistBytes: persist})
	inj.StartWindow()
	op()
	inj.EndWindow()
	if got := inj.Stats().TornInjected; got != 1 {
		t.Fatalf("TornInjected = %d, want 1 (write %d never happened?)", got, idx)
	}
}

func TestTornNodePayloadDroppedOnRemount(t *testing.T) {
	f, mtd, clk := newVolume(t)
	mustCreate(t, f, f.Root(), "survivor")

	// Tear the dirent node of the second create mid-payload: Create logs
	// the inode node (write 0) then the dirent node (write 1).
	tornAppend(t, mtd, 1, nodeHeader+3, func() {
		if _, e := f.Create(f.Root(), "casualty", 0644, 0, 0); e != errno.OK {
			t.Fatalf("Create under torn rule: %v", e)
		}
	})

	// Power cut: abandon f, rescan the flash.
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	if _, e := f2.Lookup(f2.Root(), "survivor"); e != errno.OK {
		t.Errorf("complete node lost: %v", e)
	}
	if _, e := f2.Lookup(f2.Root(), "casualty"); e != errno.ENOENT {
		t.Errorf("torn dirent visible after recovery: %v", e)
	}
	_ = clk
}

func TestTornHeaderSealsBlock(t *testing.T) {
	f, mtd, clk := newVolume(t)
	mustCreate(t, f, f.Root(), "keep")

	// Tear inside the header itself: only 1 byte of the next node's
	// header reaches flash.
	tornAppend(t, mtd, 0, 1, func() {
		if _, e := f.Create(f.Root(), "gone", 0644, 0, 0); e != errno.OK {
			t.Fatalf("Create under torn rule: %v", e)
		}
	})

	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	if _, e := f2.Lookup(f2.Root(), "keep"); e != errno.OK {
		t.Errorf("complete node lost: %v", e)
	}
	if _, e := f2.Lookup(f2.Root(), "gone"); e != errno.ENOENT {
		t.Errorf("torn create visible after recovery: %v", e)
	}
	// The torn block is sealed: new appends must land elsewhere and the
	// volume must stay fully usable.
	if _, e := f2.Create(f2.Root(), "after", 0644, 0, 0); e != errno.OK {
		t.Fatalf("create after recovery: %v", e)
	}
	f3, err := Mount(mtd, clk)
	if err != nil {
		t.Fatalf("second recovery mount: %v", err)
	}
	if _, e := f3.Lookup(f3.Root(), "after"); e != errno.OK {
		t.Errorf("post-recovery create lost: %v", e)
	}
}

func TestCorruptNodeCaughtByCRC(t *testing.T) {
	f, mtd, clk := newVolume(t)
	mustCreate(t, f, f.Root(), "good")

	inj := fault.New()
	mtd.SetInjector(inj)
	// Flip one payload bit in the next node programmed.
	inj.AddRule(fault.Rule{Kind: fault.KindCorrupt, AtWrite: 0, BitOffset: int64(nodeHeader+4) * 8})
	inj.StartWindow()
	if _, e := f.Create(f.Root(), "flipped", 0644, 0, 0); e != errno.OK {
		t.Fatalf("Create under corrupt rule: %v", e)
	}
	inj.EndWindow()
	mtd.SetInjector(nil)

	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	if _, e := f2.Lookup(f2.Root(), "good"); e != errno.OK {
		t.Errorf("intact node lost: %v", e)
	}
	// The corrupted inode node is dropped, and with it everything after
	// it in the block — "flipped" must not resolve to a usable file.
	if ino, e := f2.Lookup(f2.Root(), "flipped"); e == errno.OK {
		if _, e2 := f2.Getattr(ino); e2 == errno.OK {
			t.Error("corrupted node survived CRC verification")
		}
	}
}

func TestTornWriteMidFileData(t *testing.T) {
	f, mtd, clk := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "data")
	if _, e := f.Write(ino, 0, []byte("first version")); e != errno.OK {
		t.Fatal(e)
	}

	// Tear the inode node carrying the overwrite payload.
	tornAppend(t, mtd, 0, nodeHeader+8, func() {
		if _, e := f.Write(ino, 0, []byte("second version")); e != errno.OK {
			t.Fatalf("Write under torn rule: %v", e)
		}
	})

	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	ino2, e := f2.Lookup(f2.Root(), "data")
	if e != errno.OK {
		t.Fatalf("file lost: %v", e)
	}
	got, e := f2.Read(ino2, 0, 64)
	if e != errno.OK {
		t.Fatalf("read after recovery: %v", e)
	}
	if string(got) != "first version" {
		t.Errorf("content after torn overwrite = %q, want the pre-crash version", got)
	}
	var _ vfs.Ino = ino2
}

// TestMountWithNoAppendableBlockCollects: when every block ends in debris
// the scan seals them all, and the write head has nowhere to go. The next
// append must garbage-collect — which erases the sealed blocks — not
// program over block 0's used flash and fail with EIO for good.
func TestMountWithNoAppendableBlockCollects(t *testing.T) {
	f, mtd, clk := newVolumeOf(t, 3*testEraseSize)
	ino := mustCreate(t, f, f.Root(), "keep")
	if _, e := f.Write(ino, 0, []byte("kept")); e != errno.OK {
		t.Fatal(e)
	}
	for blk, used := range f.blockUsed {
		if err := mtd.Program([]byte{0}, int64(blk*testEraseSize+used)); err != nil {
			t.Fatal(err)
		}
	}

	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	for blk, used := range f2.blockUsed {
		if used != testEraseSize {
			t.Fatalf("block %d mounted with %d bytes used, want it sealed", blk, used)
		}
	}
	if _, e := f2.Create(f2.Root(), "after", 0644, 0, 0); e != errno.OK {
		t.Fatalf("create on a flash with every block sealed: %v", e)
	}
	f3, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, e := f3.Lookup(f3.Root(), "after"); e != errno.OK {
		t.Errorf("the create after the collection is lost: %v", e)
	}
	if got, e := f3.Read(ino, 0, 16); e != errno.OK || string(got) != "kept" {
		t.Errorf("content after the collection = (%q, %v)", got, e)
	}
}

package jffs2sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

const (
	testSize      = 256 * 1024
	testEraseSize = 8 * 1024
)

func newVolume(tb testing.TB) (*FS, *blockdev.MTD, *simclock.Clock) {
	tb.Helper()
	return newVolumeOf(tb, testSize)
}

// newVolumeOf formats and mounts a flash of size bytes; three erase blocks
// is the smallest that can garbage-collect.
func newVolumeOf(tb testing.TB, size int64) (*FS, *blockdev.MTD, *simclock.Clock) {
	tb.Helper()
	clk := simclock.New()
	mtd := blockdev.NewMTD("mtd0", size, testEraseSize, clk)
	if err := Mkfs(mtd); err != nil {
		tb.Fatalf("Mkfs: %v", err)
	}
	f, err := Mount(mtd, clk)
	if err != nil {
		tb.Fatalf("Mount: %v", err)
	}
	return f, mtd, clk
}

// newMountPath returns the one mount path a test keeps for the life of
// an MTD, the way a session keeps one mount closure per target: every
// call mounts mtd again through it.
func newMountPath(mtd *blockdev.MTD, clk *simclock.Clock) func() (*FS, error) {
	scans := NewScanCache()
	return func() (*FS, error) { return MountCached(mtd, clk, scans) }
}

func mustCreate(t *testing.T, f *FS, parent vfs.Ino, name string) vfs.Ino {
	t.Helper()
	ino, e := f.Create(parent, name, 0644, 0, 0)
	if e != errno.OK {
		t.Fatalf("Create(%q): %v", name, e)
	}
	return ino
}

func mustMkdir(t *testing.T, f *FS, parent vfs.Ino, name string) vfs.Ino {
	t.Helper()
	ino, e := f.Mkdir(parent, name, 0755, 0, 0)
	if e != errno.OK {
		t.Fatalf("Mkdir(%q): %v", name, e)
	}
	return ino
}

func TestEmptyMount(t *testing.T) {
	f, _, _ := newVolume(t)
	if f.FSType() != "jffs2" {
		t.Errorf("FSType = %q", f.FSType())
	}
	st, e := f.Getattr(f.Root())
	if e != errno.OK || !st.Mode.IsDir() {
		t.Fatalf("root = (%+v, %v)", st, e)
	}
	ents, e := f.ReadDir(f.Root())
	if e != errno.OK || len(ents) != 2 {
		t.Errorf("fresh root entries = (%v, %v)", ents, e)
	}
}

func TestWriteReadAndRemountScan(t *testing.T) {
	f, mtd, clk := newVolume(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	ino := mustCreate(t, f, d, "file")
	data := bytes.Repeat([]byte("jffs2! "), 300) // 2.1 KB, multiple nodes
	if _, e := f.Write(ino, 0, data); e != errno.OK {
		t.Fatal(e)
	}
	// Overwrite the middle: log gains a newer version node.
	if _, e := f.Write(ino, 100, []byte("OVERWRITE")); e != errno.OK {
		t.Fatal(e)
	}
	want := append([]byte{}, data...)
	copy(want[100:], "OVERWRITE")
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}

	// Remount: the full-device scan must rebuild identical state.
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	d2, e := f2.Lookup(f2.Root(), "dir")
	if e != errno.OK || d2 != d {
		t.Fatalf("dir = (%v, %v)", d2, e)
	}
	ino2, e := f2.Lookup(d2, "file")
	if e != errno.OK || ino2 != ino {
		t.Fatalf("file = (%v, %v)", ino2, e)
	}
	got, e := f2.Read(ino2, 0, len(want)+10)
	if e != errno.OK || !bytes.Equal(got, want) {
		t.Errorf("content after remount differs (len %d vs %d)", len(got), len(want))
	}
}

func TestDeletionSurvivesRemount(t *testing.T) {
	f, mtd, clk := newVolume(t)
	mustCreate(t, f, f.Root(), "gone")
	mustCreate(t, f, f.Root(), "kept")
	if e := f.Unlink(f.Root(), "gone"); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, e := f2.Lookup(f2.Root(), "gone"); e != errno.ENOENT {
		t.Errorf("deleted file resurrected after scan: %v", e)
	}
	if _, e := f2.Lookup(f2.Root(), "kept"); e != errno.OK {
		t.Errorf("kept file lost: %v", e)
	}
}

func TestTruncateSurvivesRemount(t *testing.T) {
	f, mtd, clk := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, []byte("0123456789")); e != errno.OK {
		t.Fatal(e)
	}
	size := int64(4)
	if e := f.Setattr(ino, vfs.SetAttr{Size: &size}); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	got, e := f2.Read(ino, 0, 100)
	if e != errno.OK || string(got) != "0123" {
		t.Errorf("after truncate+remount = (%q, %v)", got, e)
	}
}

func TestGrowTruncateZeros(t *testing.T) {
	f, _, _ := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "file")
	if _, e := f.Write(ino, 0, []byte("ab")); e != errno.OK {
		t.Fatal(e)
	}
	size := int64(10)
	if e := f.Setattr(ino, vfs.SetAttr{Size: &size}); e != errno.OK {
		t.Fatal(e)
	}
	got, _ := f.Read(ino, 0, 10)
	want := append([]byte("ab"), make([]byte, 8)...)
	if !bytes.Equal(got, want) {
		t.Errorf("grow-truncate content = %v", got)
	}
}

func TestGarbageCollection(t *testing.T) {
	f, mtd, clk := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "churn")
	// Rewrite the same 1 KB file many times: the log fills with dead
	// nodes and GC must reclaim them. 256 KB device, ~300 rewrites of
	// 1 KB ≈ 300 KB of log traffic — impossible without GC.
	payload := bytes.Repeat([]byte{0x42}, 1024)
	for i := 0; i < 300; i++ {
		payload[0] = byte(i)
		if _, e := f.Write(ino, 0, payload); e != errno.OK {
			t.Fatalf("write %d: %v", i, e)
		}
	}
	got, e := f.Read(ino, 0, 1024)
	if e != errno.OK || got[0] != byte(299%256) {
		t.Fatalf("after churn: (%v, %v)", got[0], e)
	}
	// GC must have erased blocks.
	total := int64(0)
	for _, c := range mtd.EraseCounts() {
		total += c
	}
	if total == 0 {
		t.Error("no erases happened despite churn")
	}
	// State must survive a remount after GC.
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	got, e = f2.Read(ino, 0, 1024)
	if e != errno.OK || !bytes.Equal(got, payload) {
		t.Error("content lost across GC + remount")
	}
}

func TestENOSPCWhenLiveDataFull(t *testing.T) {
	f, _, _ := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "big")
	// Write live data beyond what the flash can hold.
	chunk := bytes.Repeat([]byte{0x7F}, 8192)
	var off int64
	for i := 0; i < 64; i++ { // 512 KB >> 256 KB device
		if _, e := f.Write(ino, off, chunk); e != errno.OK {
			if e != errno.ENOSPC {
				t.Fatalf("unexpected errno: %v", e)
			}
			return
		}
		off += int64(len(chunk))
	}
	t.Error("never hit ENOSPC")
}

// TestFailedWriteLeavesMemoryAndFlashAgreeing: whatever a write or a
// create returns on a flash that is filling up — garbage collections and
// ENOSPC included — the mounted file system and a mount of the flash agree
// afterwards: an operation the log has no room for changes neither.
func TestFailedWriteLeavesMemoryAndFlashAgreeing(t *testing.T) {
	small := func(t *testing.T) (*FS, func(after string)) {
		f, mtd, clk := newVolumeOf(t, 3*testEraseSize)
		return f, func(after string) {
			t.Helper()
			onFlash, err := Mount(mtd, clk)
			if err != nil {
				t.Fatal(err)
			}
			mem, flash := strings.Split(fingerprint(t, f), "\n"), strings.Split(fingerprint(t, onFlash), "\n")
			for i := 0; i < len(mem) || i < len(flash); i++ {
				if i >= len(mem) || i >= len(flash) || mem[i] != flash[i] {
					t.Fatalf("after %s the mounted file system and a mount of the flash disagree from line %d on:\n--- mounted\n%.200s\n--- the flash\n%.200s",
						after, i, strings.Join(mem[min(i, len(mem)):], "\n"), strings.Join(flash[min(i, len(flash)):], "\n"))
				}
			}
		}
	}

	// Room for about 20 KiB of live data; /b is overwritten with ever more
	// until a write no longer fits even after a collection.
	t.Run("overwrite", func(t *testing.T) {
		f, agree := small(t)
		a := mustCreate(t, f, f.Root(), "a")
		if _, e := f.Write(a, 0, bytes.Repeat([]byte{0xA}, 12<<10)); e != errno.OK {
			t.Fatal(e)
		}
		b := mustCreate(t, f, f.Root(), "b")
		if _, e := f.Write(b, 0, bytes.Repeat([]byte{0xB}, 7<<10)); e != errno.OK {
			t.Fatal(e)
		}
		failed := false
		for i, size := range []int{7<<10 + 512, 8 << 10, 8<<10 + 512} {
			n, e := f.Write(b, 0, bytes.Repeat([]byte{byte(i)}, size))
			if e != errno.OK && e != errno.ENOSPC || (e == errno.OK) != (n == size) {
				t.Fatalf("write of %d bytes = (%d, %v)", size, n, e)
			}
			failed = failed || e == errno.ENOSPC
			agree(fmt.Sprintf("the write of %d bytes (%v)", size, e))
		}
		if !failed {
			t.Error("every write fitted: the test never reached ENOSPC")
		}
	})

	// Files of shrinking size until not even an empty one fits: writes
	// fail first, then creates.
	t.Run("fill", func(t *testing.T) {
		f, agree := small(t)
		var writesFailed, createsFailed int
		for i, size := 0, 2048; createsFailed < 3; i++ {
			name := fmt.Sprintf("f%d", i)
			ino, e := f.Create(f.Root(), name, 0644, 0, 0)
			agree(fmt.Sprintf("create %s (%v)", name, e))
			if e == errno.ENOSPC {
				createsFailed++
				continue
			}
			if e != errno.OK {
				t.Fatalf("create %s: %v", name, e)
			}
			_, e = f.Write(ino, 0, bytes.Repeat([]byte{byte(i)}, size))
			agree(fmt.Sprintf("the write of %d bytes to %s (%v)", size, name, e))
			if e == errno.ENOSPC {
				writesFailed++
				size /= 2
			} else if e != errno.OK {
				t.Fatalf("write to %s: %v", name, e)
			}
			if i > 500 {
				t.Fatal("the flash never filled")
			}
		}
		if writesFailed == 0 {
			t.Error("no write ran out of space before the creates did")
		}
	})

	// appendUntilFull appends to /f in ever smaller writes, halving the
	// size on every ENOSPC, until not even an append of smallest bytes fits
	// after a collection, and returns /f and its size.
	appendUntilFull := func(t *testing.T, f *FS, smallest int) (vfs.Ino, int64) {
		t.Helper()
		ino := mustCreate(t, f, f.Root(), "f")
		size := int64(0)
		for n := MaxDataPerNode; n >= smallest; {
			switch _, e := f.Write(ino, size, bytes.Repeat([]byte{0xF}, n)); e {
			case errno.OK:
				size += int64(n)
			case errno.ENOSPC:
				n /= 2
			default:
				t.Fatalf("append of %d bytes: %v", n, e)
			}
		}
		return ino, size
	}
	// fillUp fills the flash with appends, then extends /f a byte at a
	// time with truncates until one of those no longer fits either: the
	// flash has no room left for a metadata node.
	fillUp := func(t *testing.T, f *FS, agree func(string)) vfs.Ino {
		t.Helper()
		ino, size := appendUntilFull(t, f, 1)
		for i := 0; ; i++ {
			size++
			e := f.Setattr(ino, vfs.SetAttr{Size: &size})
			agree(fmt.Sprintf("truncate to %d (%v)", size, e))
			if e == errno.ENOSPC {
				return ino
			}
			if e != errno.OK || i > 100 {
				t.Fatalf("truncate to %d: %v after %d extensions", size, e, i)
			}
		}
	}
	// unchanged runs a Setattr that must fail with want and checks it left
	// the mounted file system as it found it, and agreeing with the flash.
	unchanged := func(t *testing.T, f *FS, agree func(string), what string, ino vfs.Ino, attr vfs.SetAttr, want errno.Errno) {
		t.Helper()
		before := fingerprint(t, f)
		if e := f.Setattr(ino, attr); e != want {
			t.Fatalf("%s = %v, want %v", what, e, want)
		}
		if after := fingerprint(t, f); after != before {
			t.Errorf("the failed %s changed the file system:\n--- before\n%.300s\n--- after\n%.300s", what, before, after)
		}
		agree("the failed " + what)
	}

	// A truncate or chmod on a full flash collects, finds no room, and
	// returns ENOSPC: the collection must not have made the new attributes
	// durable, nor the mounted file system show them.
	t.Run("truncate-extend", func(t *testing.T) {
		f, agree := small(t)
		ino := fillUp(t, f, agree)
		st, _ := f.Getattr(ino)
		size := st.Size + 1024
		unchanged(t, f, agree, "truncate-extend", ino, vfs.SetAttr{Size: &size}, errno.ENOSPC)
	})
	t.Run("chmod", func(t *testing.T) {
		f, agree := small(t)
		ino := fillUp(t, f, agree)
		mode := vfs.Mode(0600)
		unchanged(t, f, agree, "chmod", ino, vfs.SetAttr{Mode: &mode}, errno.ENOSPC)
	})
	// A link on a full flash: the inode node with the new link count fits,
	// the dirent after it does not. The failed link must leave neither
	// the count nor the name behind, in memory or on flash.
	t.Run("link", func(t *testing.T) {
		f, agree := small(t)
		ino, _ := appendUntilFull(t, f, 1)
		before := fingerprint(t, f)
		if e := f.Link(ino, f.Root(), "l000"); e != errno.ENOSPC {
			t.Fatalf("link on a full flash = %v, want ENOSPC", e)
		}
		if after := fingerprint(t, f); after != before {
			t.Errorf("the failed link changed the file system:\n--- before\n%.300s\n--- after\n%.300s", before, after)
		}
		agree("the failed link")
	})
	// A symlink on a flash with room for small nodes only: the inode and
	// dirent nodes every create appends fit, the node carrying a 200-byte
	// target after them does not. The failed symlink must leave neither
	// the name nor the inode behind, in memory or on flash.
	t.Run("symlink", func(t *testing.T) {
		f, agree := small(t)
		appendUntilFull(t, f, 64)
		before := fingerprint(t, f)
		if _, e := f.Symlink(strings.Repeat("t", 200), f.Root(), "l", 0, 0); e != errno.ENOSPC {
			t.Fatalf("symlink on a full flash = %v, want ENOSPC", e)
		}
		if after := fingerprint(t, f); after != before {
			t.Errorf("the failed symlink changed the file system:\n--- before\n%.300s\n--- after\n%.300s", before, after)
		}
		agree("the failed symlink")
	})
	// A chmod riding with a truncate of a directory is refused whole.
	t.Run("directory", func(t *testing.T) {
		f, agree := small(t)
		d := mustMkdir(t, f, f.Root(), "d")
		mode, size := vfs.Mode(0700), int64(0)
		unchanged(t, f, agree, "chmod+truncate of a directory", d, vfs.SetAttr{Mode: &mode, Size: &size}, errno.EISDIR)
	})
}

func TestRenameAndLinks(t *testing.T) {
	f, mtd, clk := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "orig")
	if e := f.Link(ino, f.Root(), "alias"); e != errno.OK {
		t.Fatalf("Link: %v", e)
	}
	d := mustMkdir(t, f, f.Root(), "dir")
	if e := f.Rename(f.Root(), "orig", d, "moved"); e != errno.OK {
		t.Fatalf("Rename: %v", e)
	}
	lnk, e := f.Symlink("moved", d, "sym", 0, 0)
	if e != errno.OK {
		t.Fatalf("Symlink: %v", e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	if got, e := f2.Lookup(d, "moved"); e != errno.OK || got != ino {
		t.Errorf("moved = (%v, %v)", got, e)
	}
	if got, e := f2.Lookup(f2.Root(), "alias"); e != errno.OK || got != ino {
		t.Errorf("alias = (%v, %v)", got, e)
	}
	st, _ := f2.Getattr(ino)
	if st.Nlink != 2 {
		t.Errorf("nlink after remount = %d", st.Nlink)
	}
	if tgt, e := f2.Readlink(lnk); e != errno.OK || tgt != "moved" {
		t.Errorf("symlink = (%q, %v)", tgt, e)
	}
}

func TestRmdirSemantics(t *testing.T) {
	f, _, _ := newVolume(t)
	d := mustMkdir(t, f, f.Root(), "dir")
	mustCreate(t, f, d, "f")
	if e := f.Rmdir(f.Root(), "dir"); e != errno.ENOTEMPTY {
		t.Errorf("rmdir non-empty = %v", e)
	}
	if e := f.Unlink(d, "f"); e != errno.OK {
		t.Fatal(e)
	}
	if e := f.Rmdir(f.Root(), "dir"); e != errno.OK {
		t.Errorf("rmdir empty = %v", e)
	}
}

func TestMountChargesScanTime(t *testing.T) {
	clk := simclock.New()
	mtd := blockdev.NewMTD("mtd0", testSize, testEraseSize, clk)
	if err := Mkfs(mtd); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if _, err := Mount(mtd, clk); err != nil {
		t.Fatal(err)
	}
	if clk.Now() == before {
		t.Error("mount-time scan charged no virtual time")
	}
}

// mountState is every field of a mounted FS that the flash decides.
type mountState struct {
	inodes           map[uint32]*inodeInfo
	nextIno, version uint32
	curBlock, curOff int
	blockUsed        []int
}

func stateOf(f *FS) mountState {
	return mountState{f.inodes, f.nextIno, f.version, f.curBlock, f.curOff, f.blockUsed}
}

// TestWarmMountIsChargedAsTheFullScan: the paper's JFFS2 scans the whole
// flash on every mount, so a mount through a scan cache costs the virtual
// clock and the device's read counter exactly what a first mount costs —
// cold, warm, and with one block changed in between. A read the fault
// plane fails fails the warm mount the way it fails a cold one and leaves
// nothing wrong behind in the cache. And a mount keeps none of the bytes
// the MTD lent it: wiping the flash does not reach a file system mounted
// earlier.
func TestWarmMountIsChargedAsTheFullScan(t *testing.T) {
	f, mtd, clk := scanVolume(t)
	hub := obs.New()
	hub.SetNow(clk.Now)
	mtd.SetObs(hub)
	reads := hub.Counter("blockdev.mtd0.reads")
	inj := fault.New()
	mtd.SetInjector(inj)
	scans := NewScanCache()

	// cost runs one mount and returns what it was charged.
	type cost struct {
		virtual time.Duration
		reads   int64
	}
	mount := func(do func() (*FS, error)) (*FS, cost, error) {
		t0, r0 := clk.Now(), reads.Value()
		got, err := do()
		return got, cost{clk.Now() - t0, reads.Value() - r0}, err
	}
	cached := func() (*FS, error) { return MountCached(mtd, clk, scans) }
	first := func() (*FS, error) { return Mount(mtd, clk) }

	// 200 us of scan CPU and 32 block reads of 8 KiB at 1 us/KiB.
	full := cost{200*time.Microsecond + 32*8*time.Microsecond, 32}
	for _, step := range []struct {
		name   string
		before func()
	}{
		{"cold", func() {}},
		{"warm", func() {}},
		{"one block changed", func() {
			ino, e := f.Lookup(f.Root(), "a")
			if e != errno.OK {
				t.Fatal(e)
			}
			if _, e := f.Write(ino, 100, []byte("changed")); e != errno.OK {
				t.Fatal(e)
			}
		}},
		{"warm again", func() {}},
	} {
		step.before()
		got, c, err := mount(cached)
		if err != nil {
			t.Fatalf("%s mount: %v", step.name, err)
		}
		if c != full {
			t.Errorf("%s mount was charged %+v, a full scan is %+v", step.name, c, full)
		}
		want, c, err := mount(first)
		if err != nil {
			t.Fatal(err)
		}
		if c != full {
			t.Errorf("a first mount was charged %+v, want %+v", c, full)
		}
		if !reflect.DeepEqual(stateOf(got), stateOf(want)) {
			t.Errorf("%s mount differs from a first mount of the same flash", step.name)
		}
		f = got
	}

	// A read error on block 5: same error, same charge, cold and warm —
	// five blocks served, the sixth counted and failed.
	boom := errors.New("media read fault")
	rule := inj.AddRule(fault.Rule{Kind: fault.KindReadError, Off: 5 * testEraseSize, Len: testEraseSize, Err: boom})
	_, cCold, errCold := mount(first)
	_, cWarm, errWarm := mount(cached)
	if errCold != boom || errWarm != errCold {
		t.Errorf("under a read fault a first mount fails with %v, a warm one with %v", errCold, errWarm)
	}
	if want := (cost{5 * 8 * time.Microsecond, 6}); cCold != want || cWarm != want {
		t.Errorf("failed mounts were charged %+v (first) and %+v (warm), want %+v", cCold, cWarm, want)
	}
	inj.RemoveRule(rule)
	got, c, err := mount(cached)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first()
	if err != nil {
		t.Fatal(err)
	}
	if c != full || !reflect.DeepEqual(stateOf(got), stateOf(want)) {
		t.Errorf("the mount after the failed one was charged %+v (want %+v) or differs from a first mount", c, full)
	}

	// Nothing lent is kept: wipe the flash under a mounted file system.
	before := fingerprint(t, got)
	if err := Mkfs(mtd); err != nil {
		t.Fatal(err)
	}
	empty, err := cached()
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.inodes) != 1 {
		t.Errorf("a wiped flash mounts with %d inodes", len(empty.inodes))
	}
	if after := fingerprint(t, got); after != before {
		t.Errorf("wiping the flash changed a file system mounted before the wipe:\n--- before\n%s--- after\n%s", before, after)
	}
}

// TestWarmMountAllocBudget pins what a warm mount of scanVolume allocates:
// the FS, its maps, and per file an inode, its content, its name and the
// directory's order — nothing per block and nothing per node.
func TestWarmMountAllocBudget(t *testing.T) {
	_, mtd, clk := scanVolume(t)
	scans := NewScanCache()
	if _, err := MountCached(mtd, clk, scans); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(100, func() {
		if _, err := MountCached(mtd, clk, scans); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 30
	if warm > budget {
		t.Errorf("a warm mount allocates %.0f times, budget %d", warm, budget)
	}
	cold := testing.AllocsPerRun(100, func() {
		if _, err := Mount(mtd, clk); err != nil {
			t.Fatal(err)
		}
	})
	if cold <= warm {
		t.Errorf("a first mount allocates %.0f times, a warm one %.0f: the cache saves nothing", cold, warm)
	}
}

func TestHoleWriteZeroFills(t *testing.T) {
	f, _, _ := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "holey")
	if _, e := f.Write(ino, 0, []byte("x")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := f.Write(ino, 600, []byte("y")); e != errno.OK {
		t.Fatal(e)
	}
	got, _ := f.Read(ino, 0, 601)
	for i := 1; i < 600; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, got[i])
		}
	}
}

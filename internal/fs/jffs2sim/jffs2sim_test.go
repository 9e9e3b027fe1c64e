package jffs2sim

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/kernel"
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
	ents, e := f.ReadDir(f.Root(), nil)
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
	got, e := f2.Read(ino2, 0, len(want)+10, nil)
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
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	got, e := f2.Read(ino, 0, 100, nil)
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
	if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}); e != errno.OK {
		t.Fatal(e)
	}
	got, _ := f.Read(ino, 0, 10, nil)
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
	got, e := f.Read(ino, 0, 1024, nil)
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
	got, e = f2.Read(ino, 0, 1024, nil)
	if e != errno.OK || !bytes.Equal(got, payload) {
		t.Error("content lost across GC + remount")
	}
}

// TestCollectedDirectoriesKeepTheirParents: a collection writes each
// directory's inode node before its dirents, so a replay of the collected
// log meets the dirent naming a subdirectory before the subdirectory's
// own inode node. Its parent must come out as when the inode node comes
// first: after a remount, ".." of /d is the root and ".." of /d/s is /d,
// and the link counts are the live ones.
func TestCollectedDirectoriesKeepTheirParents(t *testing.T) {
	f, mtd, clk := newVolume(t)
	d := mustMkdir(t, f, f.Root(), "d")
	s := mustMkdir(t, f, d, "s")
	if e := f.gc(); e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(mtd, clk)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dir, want vfs.Ino
		name      string
	}{{d, f2.Root(), "/d"}, {s, d, "/d/s"}} {
		if got, e := f2.Lookup(c.dir, ".."); e != errno.OK || got != c.want {
			t.Errorf("Lookup(%s, \"..\") = %d, %v after a collection and a remount; want %d", c.name, got, e, c.want)
		}
	}
	for ino, want := range map[vfs.Ino]uint32{f2.Root(): 3, d: 3, s: 2} {
		if st, e := f2.Getattr(ino); e != errno.OK || st.Nlink != want {
			t.Errorf("inode %d has %d links (%v), want %d", ino, st.Nlink, e, want)
		}
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
			e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size})
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
		unchanged(t, f, agree, "truncate-extend", ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}, errno.ENOSPC)
	})
	t.Run("chmod", func(t *testing.T) {
		f, agree := small(t)
		ino := fillUp(t, f, agree)
		mode := vfs.Mode(0600)
		unchanged(t, f, agree, "chmod", ino, vfs.SetAttr{Valid: vfs.AttrMode, Mode: mode}, errno.ENOSPC)
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
	// An unlink of a hard-linked name on a filling flash: the whiteout
	// fits, the inode node with the new link count after it does not. The
	// collection must come before the whiteout, or it makes the name
	// durable again.
	t.Run("unlink", func(t *testing.T) {
		f, agree := small(t)
		ino := mustCreate(t, f, f.Root(), "f")
		if e := f.Link(ino, f.Root(), "l000"); e != errno.OK {
			t.Fatal(e)
		}
		if _, e := f.Write(ino, 0, bytes.Repeat([]byte{0xF}, 4<<10)); e != errno.OK {
			t.Fatal(e)
		}
		// Chmods append 66-byte nodes until the log's last block holds
		// the 30-byte whiteout and no 66-byte inode node after it.
		whiteout, inode := nodeHeader+direntFixed+len("l000"), nodeHeader+inodeFixed
		for i := 0; !f.fits([]int{whiteout}) || f.fits([]int{whiteout, inode}); i++ {
			mode := vfs.Mode(0600 | i&0077)
			if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrMode, Mode: mode}); e != errno.OK || i > 1000 {
				t.Fatalf("chmod %d: %v", i, e)
			}
		}
		if e := f.Unlink(f.Root(), "l000"); e != errno.OK {
			t.Fatalf("unlink: %v", e)
		}
		if _, e := f.Lookup(f.Root(), "l000"); e != errno.ENOENT {
			t.Errorf("the unlinked name looks up with %v", e)
		}
		agree("the unlink that collects")
	})
	// A rename on a filling flash, to a free name and over a file: every
	// node but the new dirent fits. The collection must come before the
	// first node, or it makes the old name durable beside the new one.
	t.Run("rename", func(t *testing.T) {
		for _, over := range []bool{false, true} {
			f, agree := small(t)
			ino := mustCreate(t, f, f.Root(), "f")
			if _, e := f.Write(ino, 0, bytes.Repeat([]byte{0xF}, 4<<10)); e != errno.OK {
				t.Fatal(e)
			}
			// A 40-byte name makes the new dirent a 66-byte node, as wide
			// as the chmods' inode nodes, so one of them leaves the log's
			// last block holding all the other nodes and not the dirent.
			newName := strings.Repeat("n", 40)
			nodes := []int{nodeHeader + direntFixed + len("f")}
			if over {
				mustCreate(t, f, f.Root(), newName)
				nodes = append([]int{nodeHeader + inodeFixed}, nodes...)
			}
			all := append(nodes, nodeHeader+direntFixed+len(newName))
			for i := 0; !f.fits(nodes) || f.fits(all); i++ {
				mode := vfs.Mode(0600 | i&0077)
				if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrMode, Mode: mode}); e != errno.OK || i > 1000 {
					t.Fatalf("chmod %d: %v", i, e)
				}
			}
			if e := f.Rename(f.Root(), "f", f.Root(), newName); e != errno.OK {
				t.Fatalf("rename (over a file: %v): %v", over, e)
			}
			if got, e := f.Lookup(f.Root(), newName); e != errno.OK || got != ino {
				t.Errorf("the new name looks up as (%v, %v), want (%v, OK)", got, e, ino)
			}
			agree(fmt.Sprintf("the rename that collects (over a file: %v)", over))
		}
	})
	// A write whose node the flash fails (EIO): an overwrite in place
	// inside the file, and an extension into the capacity a shrink left
	// behind. Neither its bytes nor its times may stay in memory.
	t.Run("eio", func(t *testing.T) {
		for _, tc := range []struct {
			name      string
			size, off int64
		}{{"in-place", 100, 0}, {"extension", 50, 50}} {
			t.Run(tc.name, func(t *testing.T) {
				f, mtd, clk := newVolume(t)
				inj := fault.New()
				mtd.SetInjector(inj)
				ino := mustCreate(t, f, f.Root(), "f")
				if _, e := f.Write(ino, 0, bytes.Repeat([]byte{0x0A}, 100)); e != errno.OK {
					t.Fatal(e)
				}
				if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: tc.size}); e != errno.OK {
					t.Fatal(e)
				}
				before, _ := f.Getattr(ino)
				inj.AddRule(fault.Rule{Kind: fault.KindError, AtWrite: -1, Err: errors.New("program fault"), AlwaysOn: true})
				if _, e := f.Write(ino, tc.off, bytes.Repeat([]byte{0x0B}, 10)); e != errno.EIO {
					t.Fatalf("write under a program fault = %v, want EIO", e)
				}
				inj.ClearRules()
				onFlash, err := Mount(mtd, clk)
				if err != nil {
					t.Fatal(err)
				}
				if mem, flash := fingerprint(t, f), fingerprint(t, onFlash); mem != flash {
					t.Errorf("after the failed write the mounted file system and a mount of the flash disagree:\n--- mounted\n%s--- the flash\n%s", mem, flash)
				}
				after, _ := f.Getattr(ino)
				flash, _ := onFlash.Getattr(ino)
				for _, st := range []vfs.Stat{after, flash} {
					if st.Size != before.Size || st.Mtime != before.Mtime || st.Ctime != before.Ctime {
						t.Errorf("size, mtime and ctime read %d, %v, %v after the failed write (memory, then flash), want %d, %v, %v",
							st.Size, st.Mtime, st.Ctime, before.Size, before.Mtime, before.Ctime)
					}
				}
			})
		}
	})
	// A write of three nodes whose second the flash fails: the first is on
	// flash, with the new size and times, so memory keeps it too, and the
	// write returns the bytes it carries. The live inode table means what
	// a mount of a copy of the flash builds.
	t.Run("eio-later-node", func(t *testing.T) {
		for _, off := range []int64{0, 700} {
			f, mtd, _ := newVolume(t)
			inj := fault.New()
			mtd.SetInjector(inj)
			ino := mustCreate(t, f, f.Root(), "f")
			if _, e := f.Write(ino, 0, bytes.Repeat([]byte{0x0A}, 900)); e != errno.OK {
				t.Fatal(e)
			}
			inj.AddRule(fault.Rule{Kind: fault.KindError, AtWrite: 1, Err: errors.New("program fault")})
			inj.StartWindow()
			n, e := f.Write(ino, off, bytes.Repeat([]byte{0x0B}, 1300))
			inj.EndWindow()
			inj.ClearRules()
			if n != MaxDataPerNode || e != errno.OK {
				t.Errorf("a 1300-byte write at %d whose second node fails = (%d, %v), want (%d, OK)", off, n, e, MaxDataPerNode)
			}
			img := make([]byte, mtd.Size())
			if err := mtd.ReadAt(img, 0); err != nil {
				t.Fatal(err)
			}
			fresh := blockdev.NewMTD("ref", mtd.Size(), mtd.EraseSize(), nil)
			if err := fresh.LoadImage(img); err != nil {
				t.Fatal(err)
			}
			onFlash, err := Mount(fresh, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := liveDiff(f, onFlash); d != "" {
				t.Errorf("after a write at %d whose second node failed, memory and a mount of the flash differ:\n%s", off, d)
			}
			mem, _ := f.Getattr(ino)
			flash, _ := onFlash.Getattr(ino)
			if mem.Size != off+1300 || mem.Mtime != flash.Mtime {
				t.Errorf("size and mtime read %d, %v in memory and %d, %v on flash, want size %d", mem.Size, mem.Mtime, flash.Size, flash.Mtime, off+1300)
			}
		}
	})
	// A chmod riding with a truncate of a directory is refused whole.
	t.Run("directory", func(t *testing.T) {
		f, agree := small(t)
		d := mustMkdir(t, f, f.Root(), "d")
		mode, size := vfs.Mode(0700), int64(0)
		unchanged(t, f, agree, "chmod+truncate of a directory", d, vfs.SetAttr{Valid: vfs.AttrMode | vfs.AttrSize, Mode: mode, Size: size}, errno.EISDIR)
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

// mountDiff says how two mounted file systems differ in what the flash
// decides — every inode's attributes, content, link target, entries,
// order and parent; the inode and version counters; the write head and
// the per-block fill — and is "" when they agree. A struct's replay
// generation, its arrays' capacities and the map it keeps from an earlier
// mount are how a mount got there, not what it means, and are not
// compared.
func mountDiff(got, want *FS) string {
	var b strings.Builder
	for _, ino := range slices.Sorted(maps.Keys(want.inodes)) {
		if g, w := got.inodes[ino], want.inodes[ino]; g == nil || !sameInode(g, w) {
			fmt.Fprintf(&b, "inode %d is %s, want %s\n", ino, inodeString(g), inodeString(w))
		}
	}
	for _, ino := range slices.Sorted(maps.Keys(got.inodes)) {
		if want.inodes[ino] == nil {
			fmt.Fprintf(&b, "inode %d is mounted, want none\n", ino)
		}
	}
	type head struct {
		nextIno, version uint32
		curBlock, curOff int
		blockUsed        []int
	}
	gh := head{got.nextIno, got.version, got.curBlock, got.curOff, got.blockUsed}
	wh := head{want.nextIno, want.version, want.curBlock, want.curOff, want.blockUsed}
	if !reflect.DeepEqual(gh, wh) {
		fmt.Fprintf(&b, "counters and write head are %+v, want %+v\n", gh, wh)
	}
	return b.String()
}

// liveDiff describes how a live file system differs from want, a mount
// of a copy of its flash, in every inode reachable from the root, times
// aside: its mode, link count, owner, size, bytes up to its size, link
// target, parent and entries in order. One thing a replay rebuilds
// differently from the ops that logged them is aside too: the inode of a
// removed directory, which no node marks unlinked and a replay keeps
// unreachable.
func liveDiff(live, want *FS) string {
	var b strings.Builder
	reach := func(f *FS) []uint32 {
		seen := map[uint32]bool{RootIno: true}
		queue := []uint32{RootIno}
		for len(queue) > 0 {
			nd := f.inodes[queue[0]]
			queue = queue[1:]
			if nd == nil {
				continue
			}
			for _, name := range nd.order {
				if ino := nd.entries[name]; !seen[ino] {
					seen[ino] = true
					queue = append(queue, ino)
				}
			}
		}
		return slices.Sorted(maps.Keys(seen))
	}
	if g, w := reach(live), reach(want); !slices.Equal(g, w) {
		fmt.Fprintf(&b, "inodes %v are reachable, want %v\n", g, w)
	}
	for _, ino := range reach(want) {
		if g, w := live.inodes[ino], want.inodes[ino]; g == nil || w == nil || !sameLiveInode(g, w) {
			fmt.Fprintf(&b, "inode %d is %s, want %s\n", ino, inodeString(g), inodeString(w))
		}
	}
	return b.String()
}

// sameLiveInode is sameInode with the times aside, and a file's content
// read as its size says, its implicit zeros written out.
func sameLiveInode(a, b *inodeInfo) bool {
	bytesOf := func(nd *inodeInfo) []byte {
		data := nd.content[:min(int64(len(nd.content)), nd.size)]
		return append(slices.Clip(data), make([]byte, nd.size-int64(len(data)))...)
	}
	return a.mode == b.mode && a.nlink == b.nlink && a.uid == b.uid && a.gid == b.gid && a.size == b.size &&
		bytes.Equal(bytesOf(a), bytesOf(b)) && a.target == b.target && a.parent == b.parent &&
		(a.entries == nil) == (b.entries == nil) && maps.Equal(a.entries, b.entries) && slices.Equal(a.order, b.order)
}

// sameInode reports whether two inodes mean the same: a nil entry map is
// a file's, an empty one a directory's.
func sameInode(a, b *inodeInfo) bool {
	return a.mode == b.mode && a.nlink == b.nlink && a.uid == b.uid && a.gid == b.gid && a.size == b.size &&
		a.atime == b.atime && a.mtime == b.mtime && a.ctime == b.ctime && bytes.Equal(a.content, b.content) &&
		a.target == b.target && (a.entries == nil) == (b.entries == nil) && maps.Equal(a.entries, b.entries) &&
		slices.Equal(a.order, b.order) && a.parent == b.parent
}

func inodeString(nd *inodeInfo) string {
	if nd == nil {
		return "missing"
	}
	return fmt.Sprintf("{mode:%v nlink:%d uid:%d gid:%d size:%d times:%v/%v/%v content:%x target:%q entries:%v order:%q parent:%d}",
		nd.mode, nd.nlink, nd.uid, nd.gid, nd.size, nd.atime, nd.mtime, nd.ctime, nd.content, nd.target, nd.entries, nd.order, nd.parent)
}

// TestWarmMountIsChargedAsTheFullScan: the paper's JFFS2 scans the whole
// flash on every mount, so a mount through a scan cache costs the virtual
// clock and the device's read counter exactly what a first mount costs —
// cold, warm and replayed, with one block changed in between, and warm and
// copied from the memo of the last replay, into the table the last mount
// left or, while that mount still holds it, into a new one. A read the
// fault plane fails
// fails the warm mount the way it fails a cold one and leaves nothing
// wrong behind in the cache. And a mount keeps none of the bytes
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
	runtime.GC() // no collection runs into the mounts below and takes the memo
	for _, step := range []struct {
		name   string
		before func()
		// mounted keeps the last mount's FS mounted, holding its table.
		mounted bool
	}{
		{"cold", func() {}, false},
		{"warm, replayed", func() {}, false},
		{"one block changed", func() {
			ino, e := f.Lookup(f.Root(), "a")
			if e != errno.OK {
				t.Fatal(e)
			}
			if _, e := f.Write(ino, 100, []byte("changed")); e != errno.OK {
				t.Fatal(e)
			}
		}, false},
		{"warm, from the memo", func() {}, false},
		{"warm, from the memo while mounted", func() {}, true},
	} {
		step.before()
		if !step.mounted {
			if err := f.Unmount(); err != nil { // hands the table to its cache
				t.Fatal(err)
			}
		}
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
		if d := mountDiff(got, want); d != "" {
			t.Errorf("%s mount differs from a first mount of the same flash:\n%s", step.name, d)
		}
		if step.mounted && got.inodes[RootIno] == f.inodes[RootIno] {
			t.Errorf("%s mount shares its root inode with the mount still holding the table", step.name)
		}
		f = got
	}
	if scans.hits != 2 {
		t.Errorf("the memo served %d mounts, want the last two", scans.hits)
	}

	// A read error on block 5: same error, same charge, cold and warm —
	// five blocks served, the sixth counted and failed.
	boom := errors.New("media read fault")
	rule := inj.AddRule(fault.Rule{Kind: fault.KindReadError, Off: 5 * testEraseSize, Len: testEraseSize, Err: boom})
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
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
	if c != full {
		t.Errorf("the mount after the failed one was charged %+v, want %+v", c, full)
	}
	if d := mountDiff(got, want); d != "" {
		t.Errorf("the mount after the failed one differs from a first mount:\n%s", d)
	}
	if scans.hits != 3 {
		t.Errorf("the memo did not serve the mount after the failed one: %d hits", scans.hits)
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

// TestWarmMountAllocBudget pins what a warm mount of scanVolume
// allocates. After an Unmount, which hands the inode table and the memo of
// the last replay to the cache, the mount copies the memo into that table,
// or, with a block changed since, replays into it and refreshes the memo
// in place: nothing, either way, since the FS struct comes back too. While the last mount
// still holds the table, a mount copies the memo into a fresh one: the FS,
// the table's map and block fill, and per file an inode and one array for
// its content. With neither table nor memo in the slot — the first mount,
// or one after a collection took both back — a warm mount allocates the
// same, except that the content grows through four arrays, node by node:
// nothing per block and no name, and no memo. And
// the zeros a file ends in cost a mount nothing: one more file of 48 KiB
// of them, as the §3.4 equalizer writes it, adds at most 4 KiB to a mount
// that builds a fresh table, and no content at all to the file's inode
// after a remount into a reused one, replayed or copied.
func TestWarmMountAllocBudget(t *testing.T) {
	_, mtd, clk := scanVolume(t)
	scans := NewScanCache()
	f, err := MountCached(mtd, clk, scans)
	if err != nil {
		t.Fatal(err)
	}
	const remountBudget = 0
	for _, replay := range []bool{false, true} {
		runtime.GC() // no collection runs into the cycles and takes the memo
		hits := scans.hits
		remount := testing.AllocsPerRun(100, func() { remountCycle(t, &f, mtd, clk, scans, replay) })
		if remount > remountBudget {
			t.Errorf("a warm remount (replay %v) allocates %.0f times, budget %d", replay, remount, remountBudget)
		}
		if served := scans.hits - hits; replay != (served == 0) {
			t.Errorf("the memo served %d of 101 remounts with replay %v", served, replay)
		}
	}
	// The memo the last cycle kept waits in the slot while f holds the
	// table: a mount now copies it into a fresh one.
	hits := scans.hits
	copied := testing.AllocsPerRun(100, func() { freshTableMount(t, mtd, clk, scans) })
	if served := scans.hits - hits; served != 101 {
		t.Errorf("the memo served %d of 101 mounts into a fresh table", served)
	}
	const copiedBudget = 29
	if copied > copiedBudget {
		t.Errorf("a warm mount copying the memo into a fresh table allocates %.0f times, budget %d", copied, copiedBudget)
	}
	// With the slot emptied, as a collection empties it, there is no memo
	// either, and a mount replays into a fresh table.
	scans.table.Take()
	hits = scans.hits
	warm := testing.AllocsPerRun(100, func() { freshTableMount(t, mtd, clk, scans) })
	if scans.hits != hits {
		t.Errorf("a memo served %d mounts after the slot was emptied", scans.hits-hits)
	}
	const warmBudget = 56
	if warm > warmBudget {
		t.Errorf("a warm mount building a fresh table allocates %.0f times, budget %d", warm, warmBudget)
	}
	if copied >= warm {
		t.Errorf("a mount copying the memo into a fresh table allocates %.0f times, one replaying %.0f: the copy saves nothing", copied, warm)
	}
	cold := testing.AllocsPerRun(100, func() {
		if _, err := Mount(mtd, clk); err != nil {
			t.Fatal(err)
		}
	})
	if cold <= warm {
		t.Errorf("a first mount allocates %.0f times, a warm one %.0f: the cache saves nothing", cold, warm)
	}

	plain := warmMountBytes(t, mtd, clk)
	_, mtd, clk = equalizedVolume(t)
	if equalized := warmMountBytes(t, mtd, clk); equalized > plain+4<<10 {
		t.Errorf("a warm mount allocates %.0f bytes with a 48 KiB file of zeros, %.0f without", equalized, plain)
	}
	scans = NewScanCache()
	if f, err = MountCached(mtd, clk, scans); err != nil {
		t.Fatal(err)
	}
	for i, replay := range []bool{true, false, true, false} {
		remountCycle(t, &f, mtd, clk, scans, replay)
		ino, e := f.Lookup(f.Root(), "dummy")
		if e != errno.OK {
			t.Fatal(e)
		}
		if nd := f.inodes[uint32(ino)]; nd.size != 48<<10 || len(nd.content) != 0 {
			t.Errorf("remount %d (replay %v): the file of 48 KiB of zeros has size %d and holds %d bytes of content, want 49152 and 0", i+1, replay, nd.size, len(nd.content))
		}
	}
}

// freshTableMount mounts mtd through scans with no table in the slot, as
// the mount after a collection does: the mount it returns is never
// unmounted, so its table never goes back.
func freshTableMount(t *testing.T, mtd *blockdev.MTD, clk *simclock.Clock, scans *ScanCache) {
	t.Helper()
	if _, err := MountCached(mtd, clk, scans); err != nil {
		t.Fatal(err)
	}
}

// warmMountBytes returns the bytes one warm mount of mtd allocates when
// it builds a fresh table.
func warmMountBytes(t *testing.T, mtd *blockdev.MTD, clk *simclock.Clock) float64 {
	t.Helper()
	scans := NewScanCache()
	freshTableMount(t, mtd, clk, scans)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		freshTableMount(t, mtd, clk, scans)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

var _ kernel.Dropper = (*FS)(nil)

// TestMountBesideALiveFSGetsItsOwn: the cache takes an FS back only at its
// Unmount or Drop, so a mount beside a live FS gets its own, and the next
// mount after the Unmount the unmounted one's.
func TestMountBesideALiveFSGetsItsOwn(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the slot holds the FS weakly
	_, mtd, clk := newVolume(t)
	scans := NewScanCache()
	a, err := MountCached(mtd, clk, scans)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MountCached(mtd, clk, scans)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("a mount beside a live FS got that FS")
	}
	if _, e := a.Getattr(a.Root()); e != errno.OK {
		t.Fatalf("the first FS after a second mount: %v", e)
	}
	if err := a.Unmount(); err != nil {
		t.Fatal(err)
	}
	c, err := MountCached(mtd, clk, scans)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("the mount after an Unmount did not reuse the unmounted FS")
	}
	if _, e := b.Getattr(b.Root()); e != errno.OK {
		t.Errorf("the second FS after a third mount: %v", e)
	}
}

// TestRemountReusesTheInodeTable: an unmount→mount cycle allocates
// nothing, on a flash of 8 files and on one of 64, whether the mount
// copies the memo of the last replay or replays and refreshes the memo —
// both write into the FS struct, and the structs, arrays and maps, the
// last mount left — and neither does a power cut's Drop→mount. And the table and the memo are spares a
// collection takes back: the memo even while an FS holds the table, and
// after an unmount both, leaving the cache's slot empty and the heap its
// size before the mounts that built them.
func TestRemountReusesTheInodeTable(t *testing.T) {
	for _, replay := range []bool{false, true} {
		var allocs [2]float64
		for i, files := range []int{8, 64} {
			_, mtd, clk := filesVolume(t, files)
			scans := NewScanCache()
			f, err := MountCached(mtd, clk, scans)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC() // no collection runs into the cycles and takes the memo
			allocs[i] = testing.AllocsPerRun(50, func() { remountCycle(t, &f, mtd, clk, scans, replay) })
			if allocs[i] != 0 {
				t.Errorf("a remount (replay %v) of %d files allocates %.0f times, want 0", replay, files, allocs[i])
			}
			cut := testing.AllocsPerRun(50, func() {
				f.Drop()
				if f, err = MountCached(mtd, clk, scans); err != nil {
					t.Fatal(err)
				}
			})
			if cut != 0 {
				t.Errorf("a power cut and mount of %d files allocates %.0f times, want 0", files, cut)
			}
		}
		if allocs[0] != allocs[1] {
			t.Errorf("a remount (replay %v) allocates %.0f times with 8 files and %.0f with 64: it allocates per inode", replay, allocs[0], allocs[1])
		}
	}

	_, mtd, clk := filesVolume(t, 64)
	scans := NewScanCache()
	f, err := MountCached(mtd, clk, scans)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	before := liveHeap() // the blocks' scans stay; the table went with the collection
	if f, err = MountCached(mtd, clk, scans); err != nil {
		t.Fatal(err)
	}
	remountCycle(t, &f, mtd, clk, scans, false) // keeps the memo
	remountCycle(t, &f, mtd, clk, scans, false) // served by it
	if scans.hits != 1 {
		t.Fatalf("the memo served %d of two remounts, want the second", scans.hits)
	}
	if mounted := liveHeap(); mounted < before+64<<10 {
		t.Fatalf("the heap holds %d bytes with 128 KiB of files mounted, %d without: the test measures nothing", mounted, before)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	if f, err = MountCached(mtd, clk, scans); err != nil {
		t.Fatal(err)
	}
	if scans.hits != 1 {
		t.Error("the memo outlived a collection while its table was mounted")
	}
	remountCycle(t, &f, mtd, clk, scans, false) // keeps it again
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	if after := liveHeap(); after > before+16<<10 {
		t.Errorf("the heap grew from %d to %d bytes across a collection after an unmount", before, after)
	}
	if _, ok := scans.table.Take(); ok {
		t.Error("the inode table and its memo outlived a collection")
	}
	runtime.KeepAlive(mtd) // the flash is part of every heap measured
}

// liveHeap is the heap's size right after a full collection.
func liveHeap() int {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

// TestZeroWritesReadAsZero: zeros written inside a file, across its end
// and past it, and the tail of a truncate-extend, read as zeros — live,
// after a collection and after a remount — and every other byte as
// written. A mount keeps such zeros implicit, so only a reference beside
// the file system can tell a zero write that was dropped.
func TestZeroWritesReadAsZero(t *testing.T) {
	f, mtd, clk := newVolume(t)
	ino := mustCreate(t, f, f.Root(), "z")
	var model []byte
	write := func(off int, data []byte) {
		t.Helper()
		if _, e := f.Write(ino, int64(off), data); e != errno.OK {
			t.Fatal(e)
		}
		if end := off + len(data); end > len(model) {
			model = append(model, make([]byte, end-len(model))...)
		}
		copy(model[off:], data)
	}
	truncate := func(size int) {
		t.Helper()
		sz := int64(size)
		if e := f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: sz}); e != errno.OK {
			t.Fatal(e)
		}
		model = append(model[:min(size, len(model))], make([]byte, max(0, size-len(model)))...)
	}
	check := func(when string) {
		t.Helper()
		got, e := f.Read(ino, 0, 1<<20, nil)
		if e != errno.OK || !bytes.Equal(got, model) {
			t.Fatalf("%s: read %d bytes (%v) that differ from the %d written", when, len(got), e, len(model))
		}
	}
	write(0, bytes.Repeat([]byte{0xA5}, 1000))
	write(100, make([]byte, 200))  // inside
	write(900, make([]byte, 300))  // across the end
	write(1500, make([]byte, 100)) // past the end
	truncate(2000)
	write(1700, bytes.Repeat([]byte{0x5A}, 50)) // into the extension
	write(1720, make([]byte, 10))
	truncate(1710)
	truncate(1800)
	write(1740, []byte{1}) // content grows over the bytes the shrink dropped
	check("live")
	if e := f.gc(); e != errno.OK {
		t.Fatal(e)
	}
	check("after a collection")
	mount := newMountPath(mtd, clk)
	var err error
	if f, err = mount(); err != nil {
		t.Fatal(err)
	}
	check("after a remount")
	// A shrink leaves 0xA5s in content's capacity; a write past them
	// extends content over them, live and in the warm remount's replay,
	// which runs into the arrays this mount leaves.
	truncate(300)
	write(1900, []byte{2})
	check("after shrinking and extending past the stale bytes")
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	if f, err = mount(); err != nil {
		t.Fatal(err)
	}
	check("after a warm remount")
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
	got, _ := f.Read(ino, 0, 601, nil)
	for i := 1; i < 600; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, got[i])
		}
	}
}

package jffs2sim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// flashRig is one MTD under a fault plane, with one long-lived mount
// path on it (newMountPath): every mount of a run goes through that path,
// the way every mount of a session goes through the session's mount
// closure.
type flashRig struct {
	t      *testing.T
	r      *rand.Rand
	mtd    *blockdev.MTD
	inj    *fault.Injector
	mount  func() (*FS, error)
	scans  *ScanCache // the long-lived path's cache
	fs     *FS        // the file system the last check mounted
	checks int
	// beside counts the mounts beside a mounted FS the memo served.
	beside int
	small  bool
}

// image copies the flash out with one read of all of it.
func (g *flashRig) image() ([]byte, error) {
	img := make([]byte, g.mtd.Size())
	return img, g.mtd.ReadAt(img, 0)
}

// check unmounts the last FS it mounted, which hands its inode table to
// the long-lived path's cache, remounts through that path, and holds the
// FS it builds against a Mount of a fresh MTD loaded with a raw copy of
// the flash's bytes (mountDiff). Whatever the long-lived path remembers
// from earlier mounts, the result is the function of the medium a first
// mount computes. Every third check also mounts twice more through that
// path while the FS it just mounted holds the table, the memo then going
// into a fresh one, and pokes each such mount: both must mean what the
// copy's mount does, so the copy shares nothing with the memo either.
func (g *flashRig) check(when string) {
	g.t.Helper()
	if g.fs != nil {
		if err := g.fs.Unmount(); err != nil {
			g.t.Fatalf("%s: unmount: %v", when, err)
		}
	}
	got, err := g.mount()
	if err != nil {
		g.t.Fatalf("%s: mount: %v", when, err)
	}
	raw, err := g.image()
	if err != nil {
		g.t.Fatalf("%s: copying the flash: %v", when, err)
	}
	fresh := blockdev.NewMTD("ref", g.mtd.Size(), g.mtd.EraseSize(), nil)
	if err := fresh.LoadImage(raw); err != nil {
		g.t.Fatal(err)
	}
	want, err := Mount(fresh, nil)
	if err != nil {
		g.t.Fatalf("%s: mounting the copy: %v", when, err)
	}
	if d := mountDiff(got, want); d != "" {
		g.t.Fatalf("%s: the mount differs from one of a copy of the flash:\n%s", when, d)
	}
	if g.checks%3 == 1 {
		hits := g.scans.hits
		for i := 0; i < 2; i++ {
			beside, err := g.mount()
			if err != nil {
				g.t.Fatalf("%s: mount %d beside the mounted one: %v", when, i, err)
			}
			if d := mountDiff(beside, want); d != "" {
				g.t.Fatalf("%s: mount %d beside the mounted one differs from one of a copy of the flash:\n%s", when, i, d)
			}
			poke(beside)
		}
		g.beside += g.scans.hits - hits
	}
	g.fs = got
	g.checks++
}

// op runs one seeded operation on the mounted file system. Errnos are
// not looked at: ENOSPC after a garbage collection, EEXIST and ENOENT are
// all part of the walk, and a failed op has still programmed what it
// programmed.
func (g *flashRig) op() {
	f, r := g.fs, g.r
	names := []string{"a", "b", "c", "d"}
	name, other := names[r.Intn(len(names))], names[r.Intn(len(names))]
	maxOff, maxLen := 4096, 3000
	if g.small {
		maxOff, maxLen = 2048, 1500
	}
	root := f.Root()
	switch k := r.Intn(16); k {
	case 0, 1:
		f.Create(root, name, 0644, uint32(r.Intn(3)), 0)
	case 2, 3, 4, 5:
		if ino, e := f.Lookup(root, name); e == errno.OK {
			data := make([]byte, 1+r.Intn(maxLen))
			r.Read(data)
			f.Write(ino, int64(r.Intn(maxOff)), data)
		}
	case 6:
		if ino, e := f.Lookup(root, name); e == errno.OK {
			size := int64(r.Intn(maxOff))
			f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size})
		}
	case 7:
		f.Unlink(root, name)
	case 8:
		if d, e := f.Mkdir(root, name+"d", 0755, 0, 0); e == errno.OK {
			f.Create(d, other, 0600, 0, 0)
		} else if d, e := f.Lookup(root, name+"d"); e == errno.OK {
			f.Unlink(d, other)
			f.Rmdir(root, name+"d")
		}
	case 9:
		f.Rename(root, name, root, other)
	case 10:
		if ino, e := f.Lookup(root, name); e == errno.OK {
			f.Link(ino, root, other)
		}
	case 11:
		f.Symlink("../"+other, root, name, 0, 0)
	default:
		g.zeroOp(k-12, name, maxOff, maxLen)
	}
}

// zeroOp runs one of four seeded operations that leave zeros in a regular
// file, the bytes a mount may keep implicit: an all-zero write past the
// end, one straddling the end, one inside the file, or a truncate that
// extends the file followed by a non-zero write inside the extension.
func (g *flashRig) zeroOp(kind int, name string, maxOff, maxLen int) {
	f, r := g.fs, g.r
	ino, e := f.Lookup(f.Root(), name)
	if e != errno.OK {
		return
	}
	st, e := f.Getattr(ino)
	if e != errno.OK || !st.Mode.IsRegular() {
		return
	}
	size := st.Size
	switch kind {
	case 0: // past the end
		f.Write(ino, size+int64(r.Intn(maxOff)), make([]byte, 1+r.Intn(maxLen)))
	case 1: // straddling the end
		off := max(0, size-1-int64(r.Intn(maxLen)))
		f.Write(ino, off, make([]byte, size-off+1+int64(r.Intn(maxLen))))
	case 2: // inside the file
		if size == 0 {
			return
		}
		off := r.Int63n(size)
		f.Write(ino, off, make([]byte, 1+r.Int63n(min(size-off, int64(maxLen)))))
	case 3: // truncate-extend, then a non-zero write into the extension
		ext := size + 1 + int64(r.Intn(maxOff))
		if f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: ext}) != errno.OK {
			return
		}
		off := size + r.Int63n(ext-size)
		data := make([]byte, 1+r.Int63n(min(ext-off, int64(maxLen))))
		r.Read(data)
		data[0] |= 1
		f.Write(ino, off, data)
	}
}

// churn runs rounds of creates, writes, symlinks, unlinks, mkdirs and
// rmdirs inside one mount, so that the inode structs an unlink or an
// rmdir lets go of come back, through the cache's free list, for the
// creates after it. After each round the live inode table must mean what
// a mount of a copy of the flash builds, times aside (live), and the
// remount what that mount does (check).
func (g *flashRig) churn(when string, rounds int) {
	g.t.Helper()
	for i := 0; i < rounds; i++ {
		f, r := g.fs, g.r
		root := f.Root()
		for j := 0; j < 8; j++ {
			name := fmt.Sprintf("c%d", r.Intn(3))
			switch r.Intn(6) {
			case 0:
				if ino, e := f.Create(root, name, 0644, uint32(r.Intn(3)), 0); e == errno.OK {
					data := make([]byte, 1+r.Intn(700))
					r.Read(data)
					f.Write(ino, int64(r.Intn(600)), data)
				}
			case 1:
				f.Symlink(strings.Repeat("t", 1+r.Intn(40)), root, name, 0, 0)
			case 2, 3:
				f.Unlink(root, name)
			case 4:
				if d, e := f.Mkdir(root, name+"d", 0755, 0, 0); e == errno.OK {
					f.Create(d, "x", 0600, 0, 0)
					f.Symlink("../"+name, d, "l", 0, 0)
				}
			case 5:
				if d, e := f.Lookup(root, name+"d"); e == errno.OK {
					f.Unlink(d, "x")
					f.Unlink(d, "l")
					f.Rmdir(root, name+"d")
				}
			}
		}
		g.live(fmt.Sprintf("%s, round %d", when, i))
		poke(g.fs)
		g.check(fmt.Sprintf("%s, round %d", when, i))
	}
}

// live holds the mounted file system's inode table, as its ops left it,
// against a Mount of a fresh MTD loaded with a copy of the flash's bytes:
// what memory holds must be what the flash says, times aside (jffs2sim
// logs no directory times).
func (g *flashRig) live(when string) {
	g.t.Helper()
	raw, err := g.image()
	if err != nil {
		g.t.Fatalf("%s: copying the flash: %v", when, err)
	}
	fresh := blockdev.NewMTD("ref", g.mtd.Size(), g.mtd.EraseSize(), nil)
	if err := fresh.LoadImage(raw); err != nil {
		g.t.Fatal(err)
	}
	want, err := Mount(fresh, nil)
	if err != nil {
		g.t.Fatalf("%s: mounting the copy: %v", when, err)
	}
	if d := liveDiff(g.fs, want); d != "" {
		g.t.Fatalf("%s: the live file system differs from a mount of a copy of the flash:\n%s", when, d)
	}
}

// poke changes a mounted file system's memory in ways no operation
// does, writing nothing to flash: the first byte of the first file with
// content flipped in place, a name put in the root directory's entry map,
// the root's mtime moved. A remount must show none of it, since a mount is
// a function of the flash; one that kept memory an earlier mount's ops
// could reach, or kept a copy taken after they ran, would.
func poke(f *FS) {
	for _, ino := range slices.Sorted(maps.Keys(f.inodes)) {
		if nd := f.inodes[ino]; len(nd.content) > 0 {
			nd.content[0] ^= 0x5A
			break
		}
	}
	root := f.inodes[RootIno]
	root.entries["~"] = RootIno
	root.mtime++
}

// ops runs n operations, each on a poked file system, remounting and
// checking after each.
func (g *flashRig) ops(when string, n int) {
	g.t.Helper()
	for i := 0; i < n; i++ {
		poke(g.fs)
		g.op()
		g.check(fmt.Sprintf("%s, op %d", when, i))
	}
}

// newFile creates a file for a fault to land on. The name is new each
// time: a corrupted block can leave an old one dangling.
func (g *flashRig) newFile() vfs.Ino {
	g.t.Helper()
	ino, e := g.fs.Create(g.fs.Root(), fmt.Sprintf("w%d", g.checks), 0644, 0, 0)
	if e != errno.OK {
		g.t.Fatalf("creating the file a fault lands on: %v", e)
	}
	return ino
}

// fill writes n seeded bytes at the start of ino.
func (g *flashRig) fill(ino vfs.Ino, n int) {
	data := make([]byte, n)
	g.r.Read(data)
	g.fs.Write(ino, 0, data)
}

// compact garbage-collects the mounted file system, which erases the
// blocks a torn or corrupted program sealed: three of those would leave
// the three-block flash without a block to append to.
func (g *flashRig) compact(when string) {
	g.t.Helper()
	if e := g.fs.gc(); e != errno.OK {
		g.t.Fatalf("%s: garbage collection: %v", when, e)
	}
	g.check(when)
}

// faulted runs do inside a fault window under rule and reports what the
// plane injected.
func (g *flashRig) faulted(rule fault.Rule, do func()) fault.Stats {
	before := g.inj.Stats()
	g.inj.AddRule(rule)
	g.inj.StartWindow()
	do()
	g.inj.EndWindow()
	g.inj.ClearRules()
	after := g.inj.Stats()
	after.TornInjected -= before.TornInjected
	after.CorruptInjected -= before.CorruptInjected
	return after
}

// TestMountIsAFunctionOfTheFlash pins the property a mount that reuses
// anything between mounts rests on (BilbyFs's specification states it for
// its own log): the mounted state is a function of the medium's bytes.
// Seeded sequences drive one MTD through every way its bytes change —
// appended nodes (all-zero fragments past, across and inside a file's end
// among them) and garbage collection, a torn and a bit-flipped
// program, a header torn short, checkpoint frames opened three deep and
// rewound, a rewind the fault plane tears, the crash probe's
// RevertFrame + Patch over a touch log, a raw image load — and after
// every step the state mounted through the one long-lived path — after
// an unmount that handed it the last mount's inode table — means what a
// mount of a fresh device holding a copy of the bytes builds (mountDiff),
// though every op ran on memory poked without logging.
func TestMountIsAFunctionOfTheFlash(t *testing.T) {
	for _, geo := range []struct {
		name  string
		size  int64
		erase int
	}{
		{"3x8K", 3 * 8 * 1024, 8 * 1024}, // the walk garbage-collects every few ops
		{"32x8K", 256 * 1024, 8 * 1024},  // the session's geometry
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", geo.name, seed), func(t *testing.T) {
				clk := simclock.New()
				mtd := blockdev.NewMTD("mtd0", geo.size, geo.erase, clk)
				inj := fault.New()
				mtd.SetInjector(inj)
				scans := NewScanCache()
				g := &flashRig{t: t, r: rand.New(rand.NewSource(seed)), mtd: mtd,
					inj: inj, scans: scans,
					mount: func() (*FS, error) { return MountCached(mtd, clk, scans) },
					small: geo.size < 64*1024}
				blocks := int(geo.size) / geo.erase
				if err := Mkfs(mtd); err != nil {
					t.Fatal(err)
				}
				g.check("after mkfs")
				history := 40
				if g.small {
					history = 160
				}
				g.ops("history", history)
				g.churn("churn", 12)
				if g.small {
					var erases int64
					for _, n := range mtd.EraseCounts() {
						erases += n
					}
					if erases <= int64(blocks) {
						t.Fatalf("%d erases after mkfs's %d: the walk never garbage-collected", erases-int64(blocks), blocks)
					}
					t.Logf("%d garbage collections in the history", erases/int64(blocks)-1)
				}
				image, err := g.image()
				if err != nil {
					t.Fatal(err)
				}

				// A program torn inside its payload, one with a bit flipped,
				// one torn inside its header; appends go on past each.
				ino := g.newFile()
				if st := g.faulted(fault.Rule{Kind: fault.KindTorn, AtWrite: 0, PersistBytes: nodeHeader + 1 + g.r.Intn(300)},
					func() { g.fill(ino, 300) }); st.TornInjected != 1 {
					t.Fatalf("torn program: %d injected", st.TornInjected)
				}
				g.check("after a torn program")
				g.ops("past the torn program", 4)
				ino = g.newFile()
				if st := g.faulted(fault.Rule{Kind: fault.KindCorrupt, AtWrite: 1, BitOffset: int64(8*g.r.Intn(300) + g.r.Intn(8))},
					func() { g.fill(ino, 1300) }); st.CorruptInjected != 1 {
					t.Fatalf("bit-flipped program: %d injected", st.CorruptInjected)
				}
				g.check("after a bit-flipped program")
				g.ops("past the bit-flipped program", 4)
				ino = g.newFile()
				if st := g.faulted(fault.Rule{Kind: fault.KindTorn, AtWrite: 0, PersistBytes: 1 + g.r.Intn(nodeHeader-1)},
					func() { g.fill(ino, 40) }); st.TornInjected != 1 {
					t.Fatalf("torn header: %d injected", st.TornInjected)
				}
				g.check("after a torn header")
				g.ops("past the torn header", 4)
				g.compact("after collecting the three faulted blocks")

				// Checkpoint frames three deep, rewound youngest first with
				// more ops between the rewinds.
				for key := uint64(1); key <= 3; key++ {
					if err := g.mtd.OpenFrame(key); err != nil {
						t.Fatal(err)
					}
					g.ops(fmt.Sprintf("under frame %d", key), 5)
				}
				for key := uint64(3); key >= 1; key-- {
					if err := g.mtd.RewindFrame(key); err != nil {
						t.Fatal(err)
					}
					g.check(fmt.Sprintf("after rewinding frame %d", key))
					g.ops(fmt.Sprintf("past the rewind of frame %d", key), 2)
				}

				// A rewind the fault plane tears and corrupts: RewindFrame
				// books an erase and a program per block, so window write
				// 2b+1 is block b's program.
				if err := g.mtd.OpenFrame(4); err != nil {
					t.Fatal(err)
				}
				g.ops("under frame 4", 5)
				torn, flipped := g.fs.curBlock, (g.fs.curBlock+1)%blocks
				g.inj.AddRule(fault.Rule{Kind: fault.KindCorrupt, AtWrite: 2*flipped + 1, BitOffset: int64(8 * (4 + g.r.Intn(100)))})
				if st := g.faulted(fault.Rule{Kind: fault.KindTorn, AtWrite: 2*torn + 1, PersistBytes: 40 + g.r.Intn(400)}, func() {
					if err := g.mtd.RewindFrame(4); err != nil {
						t.Fatal(err)
					}
				}); st.TornInjected != 1 || st.CorruptInjected != 1 {
					t.Fatalf("faulted rewind: %+v", st)
				}
				g.check("after a torn and bit-flipped rewind")
				g.ops("past the faulted rewind", 4)
				g.compact("after collecting the rewind's two faulted blocks")

				// The crash probe's power cuts: a frame, a touch log, one
				// window, then image after image installed as
				// RevertFrame + Patch with recovery-like ops in between,
				// and the rollback at the end.
				if err := g.mtd.OpenFrame(5); err != nil {
					t.Fatal(err)
				}
				g.inj.StartTouchLog()
				g.inj.StartWindow()
				g.fill(g.newFile(), 2500)
				g.op()
				g.inj.EndWindow()
				points := g.inj.WindowWrites()
				if points < 5 {
					t.Fatalf("the window saw %d writes", points)
				}
				install := func(k int) {
					t.Helper()
					regions, ok := g.inj.Touched()
					if !ok {
						t.Fatal("touch log lost")
					}
					var writes []fault.Write
					if k >= 0 {
						var fired bool
						if writes, fired, err = g.inj.CrashImage(k); !fired || err != nil {
							t.Fatalf("crash point %d: fired %v, err %v", k, fired, err)
						}
					}
					if err := g.mtd.RevertFrame(5, regions); err != nil {
						t.Fatal(err)
					}
					if err := g.mtd.Patch(writes); err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k < points; k += 1 + g.r.Intn(2) {
					install(k)
					g.check(fmt.Sprintf("after the power cut at write %d of %d", k, points))
					g.ops(fmt.Sprintf("recovering from the cut at write %d", k), 1)
				}
				install(-1)
				g.inj.ResetTouchLog()
				g.check("after the probe's rollback")
				g.inj.StopTouchLog()
				g.mtd.CloseFrame(5)
				g.ops("past the probe", 4)

				// A raw image load: the flash as it stood after the history.
				if err := mtd.LoadImage(image); err != nil {
					t.Fatal(err)
				}
				g.check("after loading the history's image")
				g.ops("past the image load", 6)
				// The first mount builds a fresh table, so takes no memo.
				if hits := scans.hits - g.beside; hits == 0 || hits >= g.checks-1 {
					t.Errorf("the memo served %d of %d mounts: the walk takes no hit or no replay", hits, g.checks)
				}
				if g.beside == 0 {
					t.Error("the memo served no mount beside a mounted one")
				}
				t.Logf("%d mounts compared, %d served by the memo, and %d beside a mounted one", g.checks, scans.hits-g.beside, g.beside)
			})
		}
	}
}

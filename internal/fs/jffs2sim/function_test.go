package jffs2sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// flashRig is one MTD under a fault plane, reached through its bridge,
// with one long-lived mount path on it (newMountPath): every mount of a
// run goes through that path, the way every mount of a session goes
// through the session's mount closure.
type flashRig struct {
	t      *testing.T
	r      *rand.Rand
	mtd    *blockdev.MTD
	bridge *blockdev.MTDBlock
	inj    *fault.Injector
	mount  func() (*FS, error)
	fs     *FS // the file system the last check mounted
	checks int
	small  bool
}

// check remounts through the long-lived path and holds the FS it builds
// — every inode with its content, entries, order, nlink and parent, the
// inode and version counters, the write head and the per-block fill —
// against a Mount of a fresh MTD loaded with a raw copy of the flash's
// bytes. Whatever the long-lived path remembers from earlier mounts, the
// result is the function of the medium a first mount computes.
func (g *flashRig) check(when string) {
	g.t.Helper()
	got, err := g.mount()
	if err != nil {
		g.t.Fatalf("%s: mount: %v", when, err)
	}
	raw, err := g.bridge.Snapshot()
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
	if !reflect.DeepEqual(got.inodes, want.inodes) {
		for ino, w := range want.inodes {
			if gi := got.inodes[ino]; gi == nil || !reflect.DeepEqual(*gi, *w) {
				g.t.Errorf("%s: inode %d is %+v, the copy mounts it as %+v", when, ino, gi, *w)
			}
		}
		for ino := range got.inodes {
			if want.inodes[ino] == nil {
				g.t.Errorf("%s: inode %d is mounted, the copy has none", when, ino)
			}
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
		g.t.Errorf("%s: counters and write head are %+v, the copy mounts to %+v", when, gh, wh)
	}
	if g.t.Failed() {
		g.t.FailNow()
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
	switch r.Intn(12) {
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
			f.Setattr(ino, vfs.SetAttr{Size: &size})
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
	}
}

// ops runs n operations, remounting and checking after each.
func (g *flashRig) ops(when string, n int) {
	g.t.Helper()
	for i := 0; i < n; i++ {
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
// appended nodes and garbage collection, a torn and a bit-flipped
// program, a header torn short, checkpoint frames opened three deep and
// rewound, a rewind the fault plane tears, the crash probe's
// RevertFrame + Patch over a touch log, a raw image load — and after
// every step the state mounted through the one long-lived path equals,
// field for field, what a mount of a fresh device holding a copy of the
// bytes builds.
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
				g := &flashRig{t: t, r: rand.New(rand.NewSource(seed)), mtd: mtd,
					bridge: blockdev.NewMTDBlock(mtd), inj: inj,
					mount: newMountPath(mtd, clk), small: geo.size < 64*1024}
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
				image, err := g.bridge.Snapshot()
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
					if err := g.bridge.OpenFrame(key); err != nil {
						t.Fatal(err)
					}
					g.ops(fmt.Sprintf("under frame %d", key), 5)
				}
				for key := uint64(3); key >= 1; key-- {
					if err := g.bridge.RewindFrame(key); err != nil {
						t.Fatal(err)
					}
					g.check(fmt.Sprintf("after rewinding frame %d", key))
					g.ops(fmt.Sprintf("past the rewind of frame %d", key), 2)
				}

				// A rewind the fault plane tears and corrupts: RewindFrame
				// books an erase and a program per block, so window write
				// 2b+1 is block b's program.
				if err := g.bridge.OpenFrame(4); err != nil {
					t.Fatal(err)
				}
				g.ops("under frame 4", 5)
				torn, flipped := g.fs.curBlock, (g.fs.curBlock+1)%blocks
				g.inj.AddRule(fault.Rule{Kind: fault.KindCorrupt, AtWrite: 2*flipped + 1, BitOffset: int64(8 * (4 + g.r.Intn(100)))})
				if st := g.faulted(fault.Rule{Kind: fault.KindTorn, AtWrite: 2*torn + 1, PersistBytes: 40 + g.r.Intn(400)}, func() {
					if err := g.bridge.RewindFrame(4); err != nil {
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
				if err := g.bridge.OpenFrame(5); err != nil {
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
					if err := g.bridge.RevertFrame(5, regions); err != nil {
						t.Fatal(err)
					}
					if err := g.bridge.Patch(writes); err != nil {
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
				g.bridge.CloseFrame(5)
				g.ops("past the probe", 4)

				// A raw image load: the flash as it stood after the history.
				if err := mtd.LoadImage(image); err != nil {
					t.Fatal(err)
				}
				g.check("after loading the history's image")
				g.ops("past the image load", 6)
				t.Logf("%d mounts compared", g.checks)
			})
		}
	}
}

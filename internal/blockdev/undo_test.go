package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

// framedMedium is what the undo-frame tests need of Disk and of MTD: the
// Media calls, the raw image load, and the whole-image copies the frames
// are held to.
type framedMedium struct {
	dev interface {
		Media
		LoadImage(img []byte) error
		UndoStats() (frames, arenaBytes int)
	}
	// scribble changes bytes somewhere through the device's own write
	// path (WriteAt; Erase or Program on flash).
	scribble func(r *rand.Rand) error
	// snapshot copies the whole image out, and restore writes one back
	// through the write path: Disk.Snapshot and Disk.Restore, and on
	// flash what a copy through mtdblock costs — one read of all of it,
	// and an erase and a program of every block.
	snapshot func() ([]byte, error)
	restore  func(img []byte) error
}

func framedDisk(size int64, clk *simclock.Clock) framedMedium {
	d := NewRAM("ram0", size, clk)
	return framedMedium{dev: d, scribble: func(r *rand.Rand) error {
		p := make([]byte, 1+r.Intn(3*undoPage))
		r.Read(p)
		return d.WriteAt(p, r.Int63n(size-int64(len(p))+1))
	}, snapshot: d.Snapshot, restore: d.Restore}
}

func framedMTD(size int64, eraseSize int, clk *simclock.Clock) framedMedium {
	m := NewMTD("mtd0", size, eraseSize, clk)
	return framedMedium{dev: m, scribble: func(r *rand.Rand) error {
		if r.Intn(3) == 0 {
			return m.Erase(r.Intn(int(size) / eraseSize))
		}
		// Flash only clears bits: program random bytes masked by what the
		// cells hold now.
		p := make([]byte, 1+r.Intn(3*undoPage))
		off := r.Int63n(size - int64(len(p)) + 1)
		if err := m.ReadAt(p, off); err != nil {
			return err
		}
		for i := range p {
			p[i] &= byte(r.Intn(256))
		}
		return m.Program(p, off)
	}, snapshot: func() ([]byte, error) {
		img := make([]byte, size)
		return img, m.ReadAt(img, 0)
	}, restore: func(img []byte) error {
		for start := 0; start < int(size); start += eraseSize {
			if err := m.Erase(start / eraseSize); err != nil {
				return err
			}
			if err := m.Program(img[start:start+eraseSize], int64(start)); err != nil {
				return err
			}
		}
		return nil
	}}
}

// undoWalk drives one framed medium through a seeded walk of every
// byte-changing path (the write path, a whole-image restore, LoadImage,
// Patch)
// interleaved with frame opens, rewinds, partial reverts and closes in any
// order, against a reference that keeps a full copy of the image per open
// frame. After every step the medium holds the reference's bytes.
type undoWalk struct {
	t       *testing.T
	fm      framedMedium
	r       *rand.Rand
	open    []refFrame // the reference: a full image per open frame
	nextKey uint64
	// pinned is how many of the oldest frames step leaves open.
	pinned int
}

type refFrame struct {
	key uint64
	img []byte
}

func (w *undoWalk) snapshot() []byte {
	img, err := w.fm.snapshot()
	if err != nil {
		w.t.Fatal(err)
	}
	return img
}

// randImg is the medium's image with a few scattered runs changed.
func (w *undoWalk) randImg() []byte {
	img := w.snapshot()
	size := len(img)
	for n := w.r.Intn(6); n > 0; n-- {
		off := w.r.Intn(size)
		w.r.Read(img[off:min(size, off+1+w.r.Intn(2*undoPage))])
	}
	return img
}

// openFrame opens a frame and records the image it must rewind to.
func (w *undoWalk) openFrame() error {
	w.open = append(w.open, refFrame{w.nextKey, w.snapshot()})
	w.nextKey++
	return w.fm.dev.OpenFrame(w.nextKey - 1)
}

// step runs one seeded operation and checks the medium against the
// reference.
func (w *undoWalk) step(step int) {
	dev, r := w.fm.dev, w.r
	size := int(dev.Size())
	want := w.snapshot()
	var what string
	var err error
	switch op := r.Intn(13); {
	case op < 4:
		what = "write"
		err = w.fm.scribble(r)
		want = nil // whatever the write path did is the new truth
	case op == 4:
		what = "Restore"
		want = w.randImg()
		err = w.fm.restore(want)
	case op == 5:
		what = "LoadImage"
		want = w.randImg()
		err = dev.LoadImage(want)
	case op == 6:
		what = "Patch"
		var writes []fault.Write
		for n := r.Intn(4); n > 0; n-- {
			off := r.Intn(size)
			wr := fault.Write{Off: int64(off), Data: make([]byte, 1+r.Intn(min(size-off, 2*undoPage)))}
			r.Read(wr.Data)
			writes = append(writes, wr)
			copy(want[off:], wr.Data)
		}
		err = dev.Patch(writes)
	case op == 7 && len(w.open) > w.pinned:
		// Every page a region overlaps goes back to the frame's image,
		// whole; the frame stays, younger ones close.
		i := w.pinned + r.Intn(len(w.open)-w.pinned)
		what = fmt.Sprintf("RevertFrame(%d of %d)", i, len(w.open))
		var regions []fault.Region
		for n := r.Intn(4); n > 0; n-- {
			off := r.Intn(size)
			reg := fault.Region{Off: int64(off), Len: int64(1 + r.Intn(min(size-off, 2*undoPage)))}
			regions = append(regions, reg)
			first, last := pageRange(reg.Off, int(reg.Len))
			lo, hi := first*undoPage, min(last*undoPage, int64(size))
			copy(want[lo:hi], w.open[i].img[lo:hi])
		}
		err = dev.RevertFrame(w.open[i].key, regions)
		if !dev.HasFrame(w.open[i].key) {
			w.t.Fatalf("step %d: the reverted frame closed", step)
		}
		w.open = w.open[:i+1]
	case op < 10:
		what = "OpenFrame"
		err = w.openFrame()
	case op == 10 && len(w.open) > w.pinned:
		i := w.pinned + r.Intn(len(w.open)-w.pinned)
		what = fmt.Sprintf("RewindFrame(%d of %d)", i, len(w.open))
		want = w.open[i].img
		err = dev.RewindFrame(w.open[i].key)
		for _, closed := range w.open[i:] {
			if dev.HasFrame(closed.key) {
				w.t.Fatalf("step %d: frame %d still open after a rewind to an older one", step, closed.key)
			}
		}
		w.open = w.open[:i]
	case op == 11 && len(w.open) > w.pinned:
		i := w.pinned + r.Intn(len(w.open)-w.pinned)
		what = fmt.Sprintf("CloseFrame(%d of %d)", i, len(w.open))
		dev.CloseFrame(w.open[i].key)
		w.open = append(w.open[:i], w.open[i+1:]...)
	default:
		what = "RewindFrame(unknown)"
		if err := dev.RewindFrame(w.nextKey + 1000); !errors.Is(err, ErrNoFrame) {
			w.t.Fatalf("step %d: rewind to an unknown key: %v, want ErrNoFrame", step, err)
		}
	}
	if err != nil {
		w.t.Fatalf("step %d %s: %v", step, what, err)
	}
	if want != nil && !bytes.Equal(w.snapshot(), want) {
		w.t.Fatalf("step %d: after %s the medium differs from the reference", step, what)
	}
}

// finish rewinds every frame still open to its own image, youngest first;
// then nothing may be left allocated.
func (w *undoWalk) finish() {
	for i := len(w.open) - 1; i >= 0; i-- {
		if err := w.fm.dev.RewindFrame(w.open[i].key); err != nil {
			w.t.Fatal(err)
		}
		if !bytes.Equal(w.snapshot(), w.open[i].img) {
			w.t.Fatalf("unwinding: frame %d of %d rewound to the wrong image", i, len(w.open))
		}
	}
	w.open = nil
	if frames, arena := w.fm.dev.UndoStats(); frames != 0 || arena != 0 {
		w.t.Errorf("after the last frame closed: %d frames, %d arena bytes; want 0, 0", frames, arena)
	}
}

// framedMedia are the media every walk runs on. An odd size: the disk's
// last page is partial.
var framedMedia = []struct {
	name string
	mk   func() framedMedium
}{
	{"disk", func() framedMedium { return framedDisk(10*undoPage+100, simclock.New()) }},
	{"mtd", func() framedMedium { return framedMTD(64*1024, 8*1024, simclock.New()) }},
}

// TestUndoFramesMatchFullImages is the model-based check of undo.go: a
// 600-step undoWalk per medium and seed. At the end nothing is left
// allocated.
func TestUndoFramesMatchFullImages(t *testing.T) {
	for _, tc := range framedMedia {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				w := &undoWalk{t: t, fm: tc.mk(), r: rand.New(rand.NewSource(seed))}
				for step := 0; step < 600; step++ {
					w.step(step)
				}
				w.finish()
			})
		}
	}
}

// byteSource is a rand.Source that deals out fuzz bytes, four to a
// number, and zeros once they run out.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	var v uint64
	for i := 0; i < 4; i++ {
		v <<= 8
		if len(s.b) > 0 {
			v |= uint64(s.b[0])
			s.b = s.b[1:]
		}
	}
	// An odd multiplier spreads the 32 bits over the top ones, which
	// Intn reads.
	return int64(v * 0x9E3779B97F4A7C15 >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzUndoFrames decodes fuzz bytes into TestUndoFramesMatchFullImages's
// op sequence and runs it on both media against one full image per open
// frame.
func FuzzUndoFrames(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		b := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := min(len(data)/4, 300)
		for _, tc := range framedMedia {
			w := &undoWalk{t: t, fm: tc.mk(), r: rand.New(&byteSource{data})}
			for step := 0; step < steps; step++ {
				w.step(step)
			}
			w.finish()
		}
	})
}

// undoOf is the undo log behind a framed medium.
func undoOf(fm framedMedium) *undoLog {
	switch d := fm.dev.(type) {
	case *Disk:
		return &d.undo
	case *MTD:
		return &d.undo
	}
	panic(fmt.Sprintf("no undo log in %T", fm.dev))
}

// TestFrameSavesEachPageOnce: a frame holds one pre-image per page it
// saved, whatever its children did in between. A child's rewind gives the
// parent back its stamps, and a child's close leaves the parent a
// pre-image of every page the child saved; in neither case does the
// parent save the page again. A partial revert keeps every pre-image and
// stamp, so the next write to a reverted page saves nothing and the
// rewind still gives back the right bytes and stamps. And
// across an epoch wrap, the bytes still match a full image per frame.
func TestFrameSavesEachPageOnce(t *testing.T) {
	const p, q = 2, 5 // the pages written
	for _, tc := range framedMedia {
		// poke changes a byte of page pg through the medium's write path;
		// each call clears one more bit, which flash can do in place.
		poke := func(fm framedMedium, pg, i int) {
			t.Helper()
			b, off := []byte{0xFF >> (i + 1)}, int64(pg*undoPage+7)
			var err error
			switch d := fm.dev.(type) {
			case *Disk:
				err = d.WriteAt(b, off)
			case *MTD:
				err = d.Program(b, off)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		saves := func(fm framedMedium) (n int) {
			for _, q := range undoOf(fm).pages {
				if q == p {
					n++
				}
			}
			return n
		}
		for _, end := range []string{"rewound", "closed"} {
			t.Run(tc.name+"/child-"+end, func(t *testing.T) {
				fm := tc.mk()
				orig, _ := fm.snapshot()
				if err := fm.dev.OpenFrame(1); err != nil {
					t.Fatal(err)
				}
				poke(fm, p, 0)
				if err := fm.dev.OpenFrame(2); err != nil {
					t.Fatal(err)
				}
				poke(fm, p, 1)
				want := 1 // the child's pre-image went with its rewind
				if end == "rewound" {
					if err := fm.dev.RewindFrame(2); err != nil {
						t.Fatal(err)
					}
				} else {
					fm.dev.CloseFrame(2)
					want = 2 // the child's pre-image now belongs to the parent
				}
				poke(fm, p, 2)
				if n := saves(fm); n != want {
					t.Errorf("the parent holds %d pre-images of page %d, want %d", n, p, want)
				}
				if err := fm.dev.RewindFrame(1); err != nil {
					t.Fatal(err)
				}
				if got, _ := fm.snapshot(); !bytes.Equal(got, orig) {
					t.Error("the parent rewound to the wrong image")
				}
			})
		}
		t.Run(tc.name+"/child-reverted", func(t *testing.T) {
			// The child saves p, which the parent holds, then q, which it
			// does not; the revert takes p back and keeps its pre-image,
			// and the child's rewind gives the parent back q's old stamp.
			fm := tc.mk()
			orig, _ := fm.snapshot()
			if err := fm.dev.OpenFrame(1); err != nil {
				t.Fatal(err)
			}
			poke(fm, p, 0)
			if err := fm.dev.OpenFrame(2); err != nil {
				t.Fatal(err)
			}
			poke(fm, p, 1)
			poke(fm, q, 0)
			if err := fm.dev.RevertFrame(2, []fault.Region{{Off: p * undoPage, Len: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := fm.dev.RewindFrame(2); err != nil {
				t.Fatal(err)
			}
			poke(fm, q, 1) // the parent never saved q: it must now
			if err := fm.dev.RewindFrame(1); err != nil {
				t.Fatal(err)
			}
			if got, _ := fm.snapshot(); !bytes.Equal(got, orig) {
				t.Error("the parent rewound to the wrong image")
			}
		})
		t.Run(tc.name+"/revert-then-write", func(t *testing.T) {
			// A reverted page holds its pre-image again, so the frame's
			// entry still serves it: writing it again saves nothing.
			fm := tc.mk()
			orig, _ := fm.snapshot()
			if err := fm.dev.OpenFrame(1); err != nil {
				t.Fatal(err)
			}
			poke(fm, p, 0)
			if err := fm.dev.OpenFrame(2); err != nil {
				t.Fatal(err)
			}
			poke(fm, p, 1)
			poke(fm, q, 0)
			if err := fm.dev.RevertFrame(2, []fault.Region{{Off: p * undoPage, Len: 1}}); err != nil {
				t.Fatal(err)
			}
			u := undoOf(fm)
			before := len(u.pages)
			poke(fm, p, 2)
			if n := len(u.pages) - before; n != 0 {
				t.Errorf("the write after the revert saved %d pages, want 0", n)
			}
			inFrame := 0
			for _, pg := range u.pages[u.frames[len(u.frames)-1].mark:] {
				if pg == p {
					inFrame++
				}
			}
			if inFrame != 1 {
				t.Errorf("the frame holds %d pre-images of page %d, want 1", inFrame, p)
			}
			if n := saves(fm); n != 2 {
				t.Errorf("the parent holds %d pre-images of page %d, want 2", n, p)
			}
			if err := fm.dev.RewindFrame(1); err != nil {
				t.Fatal(err)
			}
			if got, _ := fm.snapshot(); !bytes.Equal(got, orig) {
				t.Error("the rewind gave back the wrong image")
			}
		})
		t.Run(tc.name+"/epoch-wrap", func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				fm := tc.mk()
				w := &undoWalk{t: t, fm: fm, r: rand.New(rand.NewSource(seed)), pinned: 1}
				if err := w.openFrame(); err != nil {
					t.Fatal(err)
				}
				const start = math.MaxUint32 - 5
				undoOf(fm).epoch = start
				for step := 0; step < 300; step++ {
					w.step(step)
				}
				if e := undoOf(fm).epoch; e >= start {
					t.Fatalf("seed %d: epoch %d, the walk never wrapped", seed, e)
				}
				w.finish()
			}
		})
	}
}

// TestFrameIsChargedAsTheImageCopy: to the virtual clock, the request
// counters, the wear counters and the fault plane, OpenFrame is the
// whole-image copy out and RewindFrame the copy of that image back in —
// Disk.Snapshot and Disk.Restore; on flash, one read of all of it, then
// an erase and a program of every block — cold cache, torn and corrupted
// restore writes included. Two identical media run the two forms side by
// side.
func TestFrameIsChargedAsTheImageCopy(t *testing.T) {
	type medium struct {
		framedMedium
		clk     *simclock.Clock
		inj     *fault.Injector
		account func() string // every counter the medium keeps
	}
	disk := func() medium {
		clk := simclock.New()
		fm := framedDisk(16*undoPage, clk)
		d := fm.dev.(*Disk)
		inj := fault.New()
		d.SetInjector(inj)
		return medium{fm, clk, inj, func() string {
			rd, wr := d.Counters()
			return fmt.Sprintf("reads=%d writes=%d lastEnd=%d cached=%v", rd, wr, d.lastEnd, d.cached)
		}}
	}
	mtd := func() medium {
		clk := simclock.New()
		fm := framedMTD(64*1024, 8*1024, clk)
		m := fm.dev.(*MTD)
		inj := fault.New()
		m.SetInjector(inj)
		return medium{fm, clk, inj, func() string { return fmt.Sprintf("erases=%v", m.EraseCounts()) }}
	}
	for _, tc := range []struct {
		name  string
		mk    func() medium
		rules []fault.Rule // installed before the restore
	}{
		{"disk", disk, nil},
		{"mtd", mtd, nil},
		{"mtd/torn-restore", mtd, []fault.Rule{{Kind: fault.KindTorn, AlwaysOn: true, Off: 8 * 1024, Len: 1, PersistBytes: 100}}},
		{"mtd/corrupt-restore", mtd, []fault.Rule{{Kind: fault.KindCorrupt, AlwaysOn: true, Off: 16 * 1024, Len: 1, BitOffset: 77}}},
		{"mtd/failed-restore", mtd, []fault.Rule{{Kind: fault.KindError, AlwaysOn: true, Off: 24 * 1024, Len: 1, Err: errors.New("worn out")}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, frm := tc.mk(), tc.mk()
			same := func(when string) {
				t.Helper()
				if a, b := img.clk.Now(), frm.clk.Now(); a != b {
					t.Errorf("%s: image form at virtual %v, frame form at %v", when, a, b)
				}
				if a, b := img.account(), frm.account(); a != b {
					t.Errorf("%s: counters differ:\n image form %s\n frame form %s", when, a, b)
				}
				if a, b := img.inj.Stats(), frm.inj.Stats(); a != b {
					t.Errorf("%s: fault plane saw %+v under images, %+v under frames", when, a, b)
				}
			}
			// The same bytes on both, some pages cold.
			for _, m := range []medium{img, frm} {
				r := rand.New(rand.NewSource(1))
				for i := 0; i < 8; i++ {
					if err := m.scribble(r); err != nil {
						t.Fatal(err)
					}
				}
				if d, ok := m.dev.(*Disk); ok {
					d.DropCaches()
				}
			}
			same("before the checkpoint")

			snap, err := img.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := frm.dev.OpenFrame(1); err != nil {
				t.Fatal(err)
			}
			same("after the checkpoint")

			for _, m := range []medium{img, frm} {
				r := rand.New(rand.NewSource(2))
				for i := 0; i < 8; i++ {
					if err := m.scribble(r); err != nil {
						t.Fatal(err)
					}
				}
				for _, rule := range tc.rules {
					m.inj.AddRule(rule)
				}
				m.inj.StartTouchLog()
			}
			errImg, errFrm := img.restore(snap), frm.dev.RewindFrame(1)
			if (errImg == nil) != (errFrm == nil) {
				t.Fatalf("restore: image form %v, frame form %v", errImg, errFrm)
			}
			same("after the restore")
			if errImg == nil {
				// A failed restore stops part-way; which blocks it reached
				// first is the one thing the two forms do not share.
				a, _ := img.snapshot()
				b, _ := frm.snapshot()
				if !bytes.Equal(a, b) {
					t.Error("the two forms restored different bytes")
				}
			}
			ta, oka := img.inj.Touched()
			tb, okb := frm.inj.Touched()
			if oka != okb || fmt.Sprint(ta) != fmt.Sprint(tb) {
				t.Errorf("touch log: %v (usable %v) under images, %v (usable %v) under frames", ta, oka, tb, okb)
			}
		})
	}
}

// TestTornRewindIsUndoneByAnOlderFrame: a rewind whose reprogramming the
// fault plane tears changes bytes like any other write, so the next
// older frame must be able to take them back — including pages that
// frame had no reason to save before.
func TestTornRewindIsUndoneByAnOlderFrame(t *testing.T) {
	fm := framedMTD(64*1024, 8*1024, simclock.New())
	m := fm.dev.(*MTD)
	inj := fault.New()
	m.SetInjector(inj)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		if err := fm.scribble(r); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := fm.snapshot()
	if err := fm.dev.OpenFrame(1); err != nil {
		t.Fatal(err)
	}
	// The older frame saves one page of its own; the tear reaches them all.
	if err := m.Program([]byte{0}, 0); err != nil {
		t.Fatal(err)
	}
	inner, _ := fm.snapshot()
	if err := fm.dev.OpenFrame(2); err != nil {
		t.Fatal(err)
	}
	id := inj.AddRule(fault.Rule{Kind: fault.KindTorn, AlwaysOn: true, PersistBytes: 100})
	if err := fm.dev.RewindFrame(2); err != nil {
		t.Fatal(err)
	}
	inj.RemoveRule(id)
	if torn, _ := fm.snapshot(); bytes.Equal(torn, inner) {
		t.Fatal("the torn rewind left no trace; the test exercises nothing")
	}
	if err := fm.dev.RewindFrame(1); err != nil {
		t.Fatal(err)
	}
	if got, _ := fm.snapshot(); !bytes.Equal(got, want) {
		t.Error("the older frame did not take back what the torn rewind wrote")
	}
}

package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

// framedMedium is what the undo-frame tests need of Disk and of the MTD
// behind its bridge: the Device frame calls, the raw image loads, and one
// way to change some bytes through the normal write path.
type framedMedium struct {
	dev interface {
		Device
		Media
		UndoStats() (frames, arenaBytes int)
	}
	// scribble changes bytes somewhere through the device's own write
	// path (WriteAt; Erase or Program on flash).
	scribble func(r *rand.Rand) error
}

func framedDisk(size int64, clk *simclock.Clock) framedMedium {
	d := NewRAM("ram0", size, clk)
	return framedMedium{dev: d, scribble: func(r *rand.Rand) error {
		p := make([]byte, 1+r.Intn(3*undoPage))
		r.Read(p)
		return d.WriteAt(p, r.Int63n(size-int64(len(p))+1))
	}}
}

func framedMTD(size int64, eraseSize int, clk *simclock.Clock) framedMedium {
	m := NewMTD("mtd0", size, eraseSize, clk)
	return framedMedium{dev: NewMTDBlock(m), scribble: func(r *rand.Rand) error {
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
	}}
}

// TestUndoFramesMatchFullImages is the model-based check of undo.go: a
// seeded walk of every byte-changing path (the write path, Restore,
// LoadImage, Patch) interleaved with frame opens, rewinds, partial
// reverts and closes in any order, against a reference that keeps a full copy of the
// image per open frame. After every step the medium holds the
// reference's bytes; at the end nothing is left allocated.
func TestUndoFramesMatchFullImages(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() framedMedium
	}{
		// An odd size: the last page is partial.
		{"disk", func() framedMedium { return framedDisk(10*undoPage+100, simclock.New()) }},
		{"mtd", func() framedMedium { return framedMTD(64*1024, 8*1024, simclock.New()) }},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				fm := tc.mk()
				dev := fm.dev
				size := int(dev.Size())

				type refFrame struct {
					key uint64
					img []byte
				}
				var open []refFrame // the reference: a full image per open frame
				var nextKey uint64
				randImg := func() []byte {
					img, err := dev.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					for n := r.Intn(6); n > 0; n-- { // a few scattered changed runs
						off := r.Intn(size)
						r.Read(img[off:min(size, off+1+r.Intn(2*undoPage))])
					}
					return img
				}

				for step := 0; step < 600; step++ {
					want, err := dev.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					var what string
					switch op := r.Intn(13); {
					case op < 4:
						what = "write"
						err = fm.scribble(r)
						want = nil // whatever the write path did is the new truth
					case op == 4:
						what = "Restore"
						want = randImg()
						err = dev.Restore(want)
					case op == 5:
						what = "LoadImage"
						want = randImg()
						err = dev.LoadImage(want)
					case op == 6:
						what = "Patch"
						var writes []fault.Write
						for n := r.Intn(4); n > 0; n-- {
							off := r.Intn(size)
							w := fault.Write{Off: int64(off), Data: make([]byte, 1+r.Intn(min(size-off, 2*undoPage)))}
							r.Read(w.Data)
							writes = append(writes, w)
							copy(want[off:], w.Data)
						}
						err = dev.Patch(writes)
					case op == 7 && len(open) > 0:
						// Every page a region overlaps goes back to the frame's
						// image, whole; the frame stays, younger ones close.
						i := r.Intn(len(open))
						what = fmt.Sprintf("RevertFrame(%d of %d)", i, len(open))
						var regions []fault.Region
						for n := r.Intn(4); n > 0; n-- {
							off := r.Intn(size)
							reg := fault.Region{Off: int64(off), Len: int64(1 + r.Intn(min(size-off, 2*undoPage)))}
							regions = append(regions, reg)
							first, last := pageRange(reg.Off, int(reg.Len))
							lo, hi := first*undoPage, min(last*undoPage, int64(size))
							copy(want[lo:hi], open[i].img[lo:hi])
						}
						err = dev.RevertFrame(open[i].key, regions)
						if !dev.HasFrame(open[i].key) {
							t.Fatalf("step %d: the reverted frame closed", step)
						}
						open = open[:i+1]
					case op < 10:
						what = "OpenFrame"
						open = append(open, refFrame{nextKey, want})
						err = dev.OpenFrame(nextKey)
						nextKey++
					case op == 10 && len(open) > 0:
						i := r.Intn(len(open))
						what = fmt.Sprintf("RewindFrame(%d of %d)", i, len(open))
						want = open[i].img
						err = dev.RewindFrame(open[i].key)
						for _, closed := range open[i:] {
							if dev.HasFrame(closed.key) {
								t.Fatalf("step %d: frame %d still open after a rewind to an older one", step, closed.key)
							}
						}
						open = open[:i]
					case op == 11 && len(open) > 0:
						i := r.Intn(len(open))
						what = fmt.Sprintf("CloseFrame(%d of %d)", i, len(open))
						dev.CloseFrame(open[i].key)
						open = append(open[:i], open[i+1:]...)
					default:
						what = "RewindFrame(unknown)"
						if err := dev.RewindFrame(nextKey + 1000); !errors.Is(err, ErrNoFrame) {
							t.Fatalf("step %d: rewind to an unknown key: %v, want ErrNoFrame", step, err)
						}
					}
					if err != nil {
						t.Fatalf("step %d %s: %v", step, what, err)
					}
					if want != nil {
						got, err := dev.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("step %d: after %s the medium differs from the reference", step, what)
						}
					}
				}
				// Unwind: every frame still open rewinds to its own image.
				for i := len(open) - 1; i >= 0; i-- {
					if err := dev.RewindFrame(open[i].key); err != nil {
						t.Fatal(err)
					}
					if got, _ := dev.Snapshot(); !bytes.Equal(got, open[i].img) {
						t.Fatalf("unwinding: frame %d of %d rewound to the wrong image", i, len(open))
					}
				}
				if frames, arena := dev.UndoStats(); frames != 0 || arena != 0 {
					t.Errorf("after the last frame closed: %d frames, %d arena bytes; want 0, 0", frames, arena)
				}
			})
		}
	}
}

// TestFrameIsChargedAsTheImageCopy: to the virtual clock, the request
// counters, the wear counters and the fault plane, OpenFrame is Snapshot
// and RewindFrame is Restore of that snapshot — cold cache, torn and
// corrupted restore writes included. Two identical media run the two
// forms side by side.
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
		m := fm.dev.(*MTDBlock).mtd
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

			snap, err := img.dev.Snapshot()
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
			errImg, errFrm := img.dev.Restore(snap), frm.dev.RewindFrame(1)
			if (errImg == nil) != (errFrm == nil) {
				t.Fatalf("restore: image form %v, frame form %v", errImg, errFrm)
			}
			same("after the restore")
			if errImg == nil {
				// A failed restore stops part-way; which blocks it reached
				// first is the one thing the two forms do not share.
				a, _ := img.dev.Snapshot()
				b, _ := frm.dev.Snapshot()
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
	m := fm.dev.(*MTDBlock).mtd
	inj := fault.New()
	m.SetInjector(inj)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		if err := fm.scribble(r); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := fm.dev.Snapshot()
	if err := fm.dev.OpenFrame(1); err != nil {
		t.Fatal(err)
	}
	// The older frame saves one page of its own; the tear reaches them all.
	if err := m.Program([]byte{0}, 0); err != nil {
		t.Fatal(err)
	}
	inner, _ := fm.dev.Snapshot()
	if err := fm.dev.OpenFrame(2); err != nil {
		t.Fatal(err)
	}
	id := inj.AddRule(fault.Rule{Kind: fault.KindTorn, AlwaysOn: true, PersistBytes: 100})
	if err := fm.dev.RewindFrame(2); err != nil {
		t.Fatal(err)
	}
	inj.RemoveRule(id)
	if torn, _ := fm.dev.Snapshot(); bytes.Equal(torn, inner) {
		t.Fatal("the torn rewind left no trace; the test exercises nothing")
	}
	if err := fm.dev.RewindFrame(1); err != nil {
		t.Fatal(err)
	}
	if got, _ := fm.dev.Snapshot(); !bytes.Equal(got, want) {
		t.Error("the older frame did not take back what the torn rewind wrote")
	}
}

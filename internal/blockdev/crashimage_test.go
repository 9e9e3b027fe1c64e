package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

// crashMedium is what the crash-image tests need of a Disk and of an
// MTD: the fault plane on it and an uncharged look at the raw bytes. Its
// scribble issues a single write event (exactly one OnWrite: WriteAt on a
// disk, Program or Erase on flash).
type crashMedium struct {
	framedMedium
	clk     *simclock.Clock
	inj     *fault.Injector
	raw     func() []byte
	account func() string // every counter and cache bit the medium keeps
}

func crashDisk() crashMedium {
	clk := simclock.New()
	fm := framedDisk(16*undoPage+100, clk)
	d := fm.dev.(*Disk)
	inj := fault.New()
	d.SetInjector(inj)
	return crashMedium{fm, clk, inj, func() []byte { return append([]byte(nil), d.data...) }, func() string {
		rd, wr := d.Counters()
		return fmt.Sprintf("reads=%d writes=%d lastEnd=%d cached=%v", rd, wr, d.lastEnd, d.cached)
	}}
}

func crashMTD() crashMedium {
	clk := simclock.New()
	fm := framedMTD(64*1024, 8*1024, clk)
	m := fm.dev.(*MTD)
	inj := fault.New()
	m.SetInjector(inj)
	return crashMedium{fm, clk, inj, func() []byte { return append([]byte(nil), m.data...) }, func() string {
		return fmt.Sprintf("erases=%v", m.EraseCounts())
	}}
}

// crashImages materialises what the fault plane holds for each crash
// point of the window that just ran — base plus the write log's prefix
// up to the point's mark — or nil where point k never fired. base is the
// raw media at the touch log's last start or reset.
func (m crashMedium) crashImages(t *testing.T, base []byte, n int) [][]byte {
	t.Helper()
	imgs := make([][]byte, n)
	for k := range imgs {
		writes, fired, err := m.inj.CrashImage(k)
		if err != nil {
			t.Fatalf("crash point %d: %v", k, err)
		}
		if fired {
			imgs[k] = append([]byte(nil), base...)
			for _, w := range writes {
				copy(imgs[k][w.Off:], w.Data)
			}
		}
	}
	return imgs
}

// window runs n write events inside a fault window, a torn and a
// corrupted write among them, and returns the raw media as it stood right
// after each.
func (m crashMedium) window(t *testing.T, r *rand.Rand, n int) [][]byte {
	t.Helper()
	m.inj.AddRule(fault.Rule{Kind: fault.KindTorn, AtWrite: r.Intn(n), PersistBytes: r.Intn(undoPage)})
	m.inj.AddRule(fault.Rule{Kind: fault.KindCorrupt, AtWrite: r.Intn(n), BitOffset: int64(r.Intn(8 * undoPage))})
	m.inj.StartWindow()
	after := make([][]byte, n)
	for k := range after {
		if err := m.scribble(r); err != nil {
			t.Fatalf("window write %d: %v", k, err)
		}
		after[k] = m.raw()
	}
	m.inj.EndWindow()
	m.inj.ClearRules()
	if got := m.inj.WindowWrites(); got != n {
		t.Fatalf("window saw %d writes, the test issued %d", got, n)
	}
	if st := m.inj.Stats(); st.TornInjected == 0 || st.CorruptInjected == 0 {
		t.Fatalf("the window tore and corrupted nothing (%+v); the test exercises less than it says", st)
	}
	return after
}

// TestCrashImageIsTheMediaRightAfterTheWrite is the crash oracle's
// ground truth: whatever form the fault plane keeps crash point k in, it
// stands for the raw media bytes right after window write k — torn and
// bit-flipped payloads as they landed, flash erases, the writes that
// preceded the window (a probe's pre-window remount) and the ones that
// followed a mid-probe rollback (its fresh mount) included — and in the
// next probe's log, which reuses the last one's bytes.
func TestCrashImageIsTheMediaRightAfterTheWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() crashMedium
	}{{"disk", crashDisk}, {"mtd", crashMTD}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				m := tc.mk()
				scribble := func(n int) {
					t.Helper()
					for ; n > 0; n-- {
						if err := m.scribble(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Two probes on one injector and medium: the second logs into
				// the bytes the first one's log and frame left behind.
				for probe := 1; probe <= 2; probe++ {
					check := func(when string, base []byte, n int) {
						t.Helper()
						after := m.window(t, r, n)
						for k, img := range m.crashImages(t, base, n) {
							if !bytes.Equal(img, after[k]) {
								t.Errorf("probe %d, %s: crash image %d of %d is not the media right after write %d", probe, when, k, n, k)
							}
						}
					}

					scribble(6) // history the probe never saw
					pre := m.raw()
					if err := m.dev.OpenFrame(1); err != nil {
						t.Fatal(err)
					}
					m.inj.StartTouchLog()
					scribble(2) // the pre-window remount's flushes
					check("first window", pre, 5+r.Intn(12))

					// Roll back to the pre-probe image the way the oracle does, over
					// the touch log, and probe again from there.
					regions, ok := m.inj.Touched()
					if !ok {
						t.Fatal("touch log lost")
					}
					if err := m.dev.RevertFrame(1, regions); err != nil {
						t.Fatal(err)
					}
					m.inj.ResetTouchLog()
					if !bytes.Equal(m.raw(), pre) {
						t.Fatal("the rollback did not bring the pre-probe image back")
					}
					scribble(3) // the post-rollback mount's writes
					check("window after a rollback", pre, 5+r.Intn(12))
					m.inj.StopTouchLog()
					m.dev.CloseFrame(1)
				}
			})
		}
	}
}

// TestInstallIsChargedAsTheImageLoad: installing crash image k as "the
// frame inside the diverged regions, plus the log's prefix" leaves the
// bytes, and every cache effect the virtual clock can see, that loading
// a full copy of image k over those regions leaves — for the delta form
// (the touch log's regions) and the full form (the whole device), point
// after point with recovery-like writes in between, the way a probe
// judges them. Two identical media run the two forms side by side.
func TestInstallIsChargedAsTheImageLoad(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() crashMedium
		full bool
	}{
		{"disk/delta", crashDisk, false}, {"disk/full", crashDisk, true},
		{"mtd/delta", crashMTD, false}, {"mtd/full", crashMTD, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, frm := tc.mk(), tc.mk()
			both := func(seed int64, n int) {
				t.Helper()
				for _, m := range []crashMedium{img, frm} {
					r := rand.New(rand.NewSource(seed))
					for i := 0; i < n; i++ {
						if err := m.scribble(r); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			same := func(when string) {
				t.Helper()
				if !bytes.Equal(img.raw(), frm.raw()) {
					t.Fatalf("%s: the two forms hold different bytes", when)
				}
				if a, b := img.clk.Now(), frm.clk.Now(); a != b {
					t.Errorf("%s: image form at virtual %v, frame form at %v", when, a, b)
				}
				if a, b := img.account(), frm.account(); a != b {
					t.Errorf("%s: counters differ:\n image form %s\n frame form %s", when, a, b)
				}
			}
			both(1, 6)
			for _, m := range []crashMedium{img, frm} {
				if d, ok := m.dev.(*Disk); ok {
					d.DropCaches()
				}
			}
			pre, err := img.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := frm.dev.OpenFrame(1); err != nil {
				t.Fatal(err)
			}
			img.inj.StartTouchLog()
			frm.inj.StartTouchLog()
			both(2, 2)
			const n = 9
			after := img.window(t, rand.New(rand.NewSource(3)), n)
			frm.window(t, rand.New(rand.NewSource(3)), n)
			same("after the window")

			whole := []fault.Region{{Off: 0, Len: img.dev.Size()}}
			scratch := make([]byte, img.dev.Size())
			for k := 0; k < n; k += 2 {
				regions, ok := frm.inj.Touched()
				if !ok {
					t.Fatal("touch log lost")
				}
				writes, fired, err := frm.inj.CrashImage(k)
				if !fired || err != nil {
					t.Fatalf("crash point %d: fired %v, err %v", k, fired, err)
				}
				if tc.full {
					regions = whole
				}
				switch d, ok := img.dev.(*Disk); {
				case tc.full || !ok: // flash has no cache: every load is the full one
					err = img.dev.LoadImage(after[k])
				default:
					err = d.LoadImageDelta(after[k], regions)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := frm.dev.RevertFrame(1, regions); err != nil {
					t.Fatal(err)
				}
				if err := frm.dev.Patch(writes); err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("after installing image %d", k))
				for _, m := range []crashMedium{img, frm} {
					if err := m.dev.ReadAt(scratch, 0); err != nil {
						t.Fatal(err)
					}
				}
				same(fmt.Sprintf("after reading the device back under image %d", k))
				both(int64(10+k), 2) // recovery's own writes
			}

			// The rollback: no prefix, and nothing of the probe left behind.
			regions, _ := frm.inj.Touched()
			if err := frm.dev.RevertFrame(1, regions); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frm.raw(), pre) {
				t.Error("reverting the touched regions did not bring the pre-probe image back")
			}
			frm.dev.CloseFrame(1)
			if frames, arena := frm.dev.UndoStats(); frames != 0 || arena != 0 {
				t.Errorf("after the probe: %d frames, %d arena bytes; want 0, 0", frames, arena)
			}
		})
	}
}

// TestWholeRevertIsTheImageLoad is the law the crash oracle's reference
// flow rests on: RevertFrame(k, [0, Size())) leaves what LoadImage of
// frame k's image leaves — the bytes, the page cache and the head
// position, the virtual clock, the read, write and erase counters and
// the fault plane's stats, whose always-failing rules neither call
// consults — with writes before, under and after a younger frame, on two
// identical media side by side. The one difference is the flash's block
// stamps: the load stamps every block, the revert only the blocks it
// copies pages back into.
func TestWholeRevertIsTheImageLoad(t *testing.T) {
	kept := 0 // flash blocks whose stamps the revert kept, over every seed
	for _, tc := range []struct {
		name string
		mk   func() crashMedium
	}{{"disk", crashDisk}, {"mtd", crashMTD}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				load, rev := tc.mk(), tc.mk()
				var img []byte // frame 1's image
				for _, m := range []crashMedium{load, rev} {
					r := rand.New(rand.NewSource(seed))
					scribble := func(n int) {
						t.Helper()
						for ; n > 0; n-- {
							if err := m.scribble(r); err != nil {
								t.Fatal(err)
							}
						}
					}
					scribble(4)
					if d, ok := m.dev.(*Disk); ok {
						d.DropCaches()
						scribble(1) // some pages hot, some cold
					}
					if err := m.dev.OpenFrame(1); err != nil {
						t.Fatal(err)
					}
					img = m.raw()
					scribble(1 + r.Intn(2))
					if err := m.dev.OpenFrame(2); err != nil {
						t.Fatal(err)
					}
					scribble(1 + r.Intn(2))
					m.inj.AddRule(fault.Rule{Kind: fault.KindError, AlwaysOn: true, Err: errors.New("write fault")})
					m.inj.AddRule(fault.Rule{Kind: fault.KindReadError, Err: errors.New("read fault")})
				}
				stats := load.inj.Stats()
				var loadStamps, revStamps []uint64
				var moved map[int]bool // the blocks holding a page frame 1 saved
				if m, ok := rev.dev.(*MTD); ok {
					loadStamps = slices.Clone(load.dev.(*MTD).stamps)
					revStamps = slices.Clone(m.stamps)
					moved = map[int]bool{}
					for _, p := range m.undo.pages[m.undo.frames[m.undo.find(1)].mark:] {
						moved[int(p)*undoPage/m.eraseSize] = true
					}
				}

				if err := load.dev.LoadImage(img); err != nil {
					t.Fatal(err)
				}
				if err := rev.dev.RevertFrame(1, []fault.Region{{Len: rev.dev.Size()}}); err != nil {
					t.Fatal(err)
				}

				if !bytes.Equal(load.raw(), img) || !bytes.Equal(rev.raw(), img) {
					t.Error("the load or the revert left bytes that are not frame 1's image")
				}
				if a, b := load.clk.Now(), rev.clk.Now(); a != b {
					t.Errorf("the load leaves the clock at %v, the revert at %v", a, b)
				}
				if a, b := load.account(), rev.account(); a != b {
					t.Errorf("counters and cache differ:\n load   %s\n revert %s", a, b)
				}
				if a, b := load.inj.Stats(), rev.inj.Stats(); a != stats || b != stats {
					t.Errorf("fault plane stats moved: %+v before, %+v after the load, %+v after the revert", stats, a, b)
				}
				if moved == nil {
					return
				}
				for blk, s := range load.dev.(*MTD).stamps {
					if s == loadStamps[blk] {
						t.Errorf("the load left block %d's stamp", blk)
					}
				}
				for blk, s := range rev.dev.(*MTD).stamps {
					if s != revStamps[blk] != moved[blk] {
						t.Errorf("block %d: stamp %d -> %d, yet frame 1 saved a page of it: %v", blk, revStamps[blk], s, moved[blk])
					}
					if !moved[blk] {
						kept++
					}
				}
			})
		}
	}
	if kept == 0 {
		t.Error("every revert restamped every block: the law's one difference went unexercised")
	}
}

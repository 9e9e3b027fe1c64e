package blockdev

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

// crashMedium is what the crash-image tests need of a Disk and of an MTD
// behind its bridge: the fault plane on it, an uncharged look at the raw
// bytes, and one way to issue a single write event (exactly one OnWrite:
// WriteAt on a disk, Program or Erase on flash).
type crashMedium struct {
	dev interface {
		Device
		Media
	}
	clk   *simclock.Clock
	inj   *fault.Injector
	raw   func() []byte
	write func(r *rand.Rand) error
}

func crashDisk() crashMedium {
	clk := simclock.New()
	fm := framedDisk(16*undoPage+100, clk)
	d := fm.dev.(*Disk)
	inj := fault.New()
	d.SetInjector(inj)
	return crashMedium{d, clk, inj, func() []byte { return append([]byte(nil), d.data...) }, fm.scribble}
}

func crashMTD() crashMedium {
	clk := simclock.New()
	fm := framedMTD(64*1024, 8*1024, clk)
	b := fm.dev.(*MTDBlock)
	inj := fault.New()
	b.mtd.SetInjector(inj)
	return crashMedium{b, clk, inj, func() []byte { return append([]byte(nil), b.mtd.data...) }, fm.scribble}
}

// crashImages returns what the fault plane holds for each crash point of
// the window that just ran: image k, or nil where point k never fired.
func (m crashMedium) crashImages(t *testing.T, n int) [][]byte {
	t.Helper()
	held := m.inj.TakeCrashImages()
	imgs := make([][]byte, n)
	for k := range imgs {
		imgs[k] = held[k]
	}
	return imgs
}

// window runs n write events inside a fault window with every index
// armed and a torn and a corrupted write among them, and returns the raw
// media as it stood right after each.
func (m crashMedium) window(t *testing.T, r *rand.Rand, n int) [][]byte {
	t.Helper()
	m.inj.AddRule(fault.Rule{Kind: fault.KindTorn, AtWrite: r.Intn(n), PersistBytes: r.Intn(undoPage)})
	m.inj.AddRule(fault.Rule{Kind: fault.KindCorrupt, AtWrite: r.Intn(n), BitOffset: int64(r.Intn(8 * undoPage))})
	armed := make([]int, n)
	for k := range armed {
		armed[k] = k
	}
	m.inj.StartWindow()
	m.inj.ArmCrashes(armed)
	after := make([][]byte, n)
	for k := range after {
		if err := m.write(r); err != nil {
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
// followed a mid-probe rollback (its fresh mount) included.
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
						if err := m.write(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				check := func(when string, n int) {
					t.Helper()
					after := m.window(t, r, n)
					for k, img := range m.crashImages(t, n) {
						if !bytes.Equal(img, after[k]) {
							t.Errorf("%s: crash image %d of %d is not the media right after write %d", when, k, n, k)
						}
					}
				}

				scribble(6) // history the probe never saw
				pre := m.raw()
				m.inj.StartTouchLog()
				scribble(2) // the pre-window remount's flushes
				check("first window", 5+r.Intn(12))

				// Roll back to the pre-probe image the way the oracle does, over
				// the touch log, and probe again from there.
				regions, ok := m.inj.Touched()
				if !ok {
					t.Fatal("touch log lost")
				}
				if err := m.dev.LoadImageDelta(pre, regions); err != nil {
					t.Fatal(err)
				}
				m.inj.ResetTouchLog()
				if !bytes.Equal(m.raw(), pre) {
					t.Fatal("the rollback did not bring the pre-probe image back")
				}
				scribble(3) // the post-rollback mount's writes
				check("window after a rollback", 5+r.Intn(12))
			})
		}
	}
}

package blockdev

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mcfs/internal/fault"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
)

// TestBlockStampCoversEveryByteChange pins the invariant a reader that
// keeps anything per erase block rests on: a block whose change stamp has
// not moved holds the bytes it held. A shadow copy of the flash and of
// the stamps stands beside the MTD through a seeded walk of every path
// that changes its bytes — Program whole, torn and bit-flipped, Erase,
// LoadImage, frames opened, rewound
// (cleanly and under a tearing, bit-flipping fault plane), reverted in
// part, patched and closed — and after each step every block with an
// unmoved stamp is byte-equal to the shadow, no stamp has gone back, and
// no stamp is one the device has handed out before. The paths that change
// nothing (OpenFrame, CloseFrame, the reads) move none, and a program
// moves only the blocks it overlaps: the stamps are not a device-wide
// "something changed".
func TestBlockStampCoversEveryByteChange(t *testing.T) {
	const size, es = 64 * 1024, 8 * 1024
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			m := NewMTD("mtd0", size, es, simclock.New())
			inj := fault.New()
			m.SetInjector(inj)

			shadow := append([]byte(nil), m.data...)
			stamps := append([]uint64(nil), m.stamps...)
			var newest uint64 // the largest stamp seen so far
			// settle checks the step that just ran and returns how many
			// stamps it moved.
			settle := func(what string) int {
				t.Helper()
				moved := 0
				high := newest
				for blk, now := range m.stamps {
					lo, hi := blk*es, (blk+1)*es
					switch {
					case now == stamps[blk]:
						if !bytes.Equal(m.data[lo:hi], shadow[lo:hi]) {
							t.Fatalf("%s changed block %d and left its stamp at %d", what, blk, now)
						}
					case now <= newest:
						t.Fatalf("%s moved block %d's stamp from %d to %d, not past every stamp handed out before (%d)", what, blk, stamps[blk], now, newest)
					default:
						moved++
						high = max(high, now)
					}
				}
				newest = high
				copy(shadow, m.data)
				copy(stamps, m.stamps)
				return moved
			}
			// programmable returns n bytes the flash at off can take: bits
			// only clear.
			programmable := func(off int64, n int) []byte {
				p := append([]byte(nil), m.data[off:off+int64(n)]...)
				for i := range p {
					p[i] &= byte(r.Intn(256))
				}
				return p
			}
			must := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			// faulted runs do in a fault window that tears one write event
			// and flips a bit in another.
			faulted := func(events int, do func()) {
				inj.AddRule(fault.Rule{Kind: fault.KindTorn, AtWrite: r.Intn(events), PersistBytes: r.Intn(es)})
				inj.AddRule(fault.Rule{Kind: fault.KindCorrupt, AtWrite: r.Intn(events), BitOffset: int64(r.Intn(8 * es))})
				inj.StartWindow()
				do()
				inj.EndWindow()
				inj.ClearRules()
			}

			var open []uint64 // frame keys, oldest first
			var nextKey uint64
			steps := map[string]int{}
			for step := 0; step < 800; step++ {
				var what string
				moved, wantMoved := 0, -1 // -1: as many as it takes
				switch op := r.Intn(14); {
				case op < 3:
					what = "Program"
					n := 1 + r.Intn(2*es)
					off := r.Int63n(size - int64(n) + 1)
					must(what, m.Program(programmable(off, n), off))
					wantMoved = int((off+int64(n)-1)/es - off/es + 1)
				case op == 3:
					what = "torn and bit-flipped Program"
					n := 1 + r.Intn(es)
					off := r.Int63n(size - int64(n) + 1)
					faulted(1, func() { must(what, m.Program(programmable(off, n), off)) })
				case op == 4:
					what = "Erase"
					must(what, m.Erase(r.Intn(size/es)))
					wantMoved = 1
				case op == 5:
					what = "LoadImage"
					img := append([]byte(nil), m.data...)
					for n := r.Intn(4); n > 0; n-- {
						off := r.Intn(size)
						r.Read(img[off:min(size, off+1+r.Intn(es))])
					}
					must(what, m.LoadImage(img))
					wantMoved = size / es
				case op == 6 || op == 7:
					what = "OpenFrame"
					nextKey++
					must(what, m.OpenFrame(nextKey))
					open = append(open, nextKey)
					wantMoved = 0
				case op == 8 && len(open) > 0:
					what = "RewindFrame"
					i := r.Intn(len(open))
					must(what, m.RewindFrame(open[i]))
					open = open[:i]
				case op == 9 && len(open) > 0:
					what = "torn and bit-flipped RewindFrame"
					i := r.Intn(len(open))
					faulted(2*size/es, func() { must(what, m.RewindFrame(open[i])) })
					open = open[:i]
				case op == 10 && len(open) > 0:
					what = "RevertFrame"
					i := r.Intn(len(open))
					var regions []fault.Region
					for n := r.Intn(4); n > 0; n-- {
						off := r.Int63n(size)
						regions = append(regions, fault.Region{Off: off, Len: 1 + r.Int63n(min(size-off, 3*es))})
					}
					must(what, m.RevertFrame(open[i], regions))
					open = open[:i+1]
				case op == 11:
					what = "Patch"
					var writes []fault.Write
					for n := r.Intn(4); n > 0; n-- {
						data := make([]byte, 1+r.Intn(es))
						r.Read(data)
						writes = append(writes, fault.Write{Off: r.Int63n(size - int64(len(data)) + 1), Data: data})
					}
					must(what, m.Patch(writes))
				case op == 12 && len(open) > 0:
					what = "CloseFrame"
					i := r.Intn(len(open))
					m.CloseFrame(open[i])
					open = append(open[:i], open[i+1:]...)
					wantMoved = 0
				default:
					what = "ReadAt and LendBlock"
					blk := r.Intn(size / es)
					must(what, m.ReadAt(make([]byte, 1+r.Intn(es)), int64(blk*es)))
					data, stamp, err := m.LendBlock(blk)
					must(what, err)
					if stamp != stamps[blk] || !bytes.Equal(data, shadow[blk*es:(blk+1)*es]) {
						t.Fatalf("LendBlock(%d) lent stamp %d over bytes that are not block %d's (stamp %d)", blk, stamp, blk, stamps[blk])
					}
					wantMoved = 0
				}
				if moved = settle(what); wantMoved >= 0 && moved != wantMoved {
					t.Fatalf("step %d: %s moved %d stamps, want %d", step, what, moved, wantMoved)
				}
				steps[what]++
			}
			for _, what := range []string{"Program", "torn and bit-flipped Program", "Erase", "LoadImage",
				"OpenFrame", "RewindFrame", "torn and bit-flipped RewindFrame", "RevertFrame", "Patch", "CloseFrame", "ReadAt and LendBlock"} {
				if steps[what] == 0 {
					t.Errorf("the walk never took a %s step", what)
				}
			}
		})
	}
}

// TestLendBlockIsBookedAsTheRead: LendBlock costs what ReadAt of the same
// block costs — one read on the counter, one word from the fault plane
// (whose error it returns, lending nothing), the same virtual time — on
// two identical devices side by side.
func TestLendBlockIsBookedAsTheRead(t *testing.T) {
	const size, es = 32 * 1024, 8 * 1024
	type side struct {
		clk   *simclock.Clock
		m     *MTD
		inj   *fault.Injector
		reads *obs.Counter
	}
	mk := func() side {
		clk := simclock.New()
		m := NewMTD("mtd0", size, es, clk)
		inj := fault.New()
		m.SetInjector(inj)
		hub := obs.New()
		hub.SetNow(clk.Now)
		m.SetObs(hub)
		return side{clk, m, inj, hub.Counter("blockdev.mtd0.reads")}
	}
	copied, lent := mk(), mk()
	boom := fmt.Errorf("media read fault")
	for _, s := range []side{copied, lent} {
		s.inj.AddRule(fault.Rule{Kind: fault.KindReadError, Off: 2 * es, Len: es, Err: boom})
	}
	buf := make([]byte, es)
	for blk := 0; blk < size/es; blk++ {
		errCopy := copied.m.ReadAt(buf, int64(blk*es))
		data, _, errLend := lent.m.LendBlock(blk)
		if errCopy != errLend || (blk == 2) != (errLend == boom) {
			t.Fatalf("block %d: ReadAt says %v, LendBlock says %v", blk, errCopy, errLend)
		}
		if errLend != nil && data != nil {
			t.Errorf("block %d: a failed read lent %d bytes", blk, len(data))
		}
		if a, b := copied.clk.Now(), lent.clk.Now(); a != b {
			t.Errorf("block %d: ReadAt has charged %v, LendBlock %v", blk, a, b)
		}
		if a, b := copied.inj.Stats(), lent.inj.Stats(); a != b {
			t.Errorf("block %d: fault plane stats %+v vs %+v", blk, a, b)
		}
		if a, b := copied.reads.Value(), lent.reads.Value(); a != b || a != int64(blk+1) {
			t.Errorf("block %d: ReadAt has counted %d reads, LendBlock %d, want %d", blk, a, b, blk+1)
		}
	}
	if _, _, err := lent.m.LendBlock(size / es); err == nil {
		t.Error("LendBlock past the last block returned no error")
	}
}

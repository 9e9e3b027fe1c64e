package blockdev

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mcfs/internal/fault"
	"mcfs/internal/simclock"
)

// window is how much of every medium the law's sequence touches: all of
// the small ones.
const window = 256 << 10

// flatTwin is what a medium would be as one flat image: the bytes of the
// window (past it every byte stays blank), a full copy of them per open
// frame, and every charge, counter and cache bit worked out from the
// cost model in the plain way, a loop over every page where it takes
// one. On flash it also names the blocks whose stamps an op moves: each
// frame keeps the blocks changed while it was the newest one open, so a
// rewind or a revert moves the blocks of its frame and every younger
// one.
type flatTwin struct {
	size   int64
	blank  byte
	img    []byte
	frames []twinFrame
	clock  time.Duration

	// Disk
	prof          Profile
	cached        []bool
	lastEnd       int64
	reads, writes int64

	// Flash
	es     int
	erases []int64
	moved  map[int]bool // blocks whose stamp the step moved
}

type twinFrame struct {
	key     uint64
	img     []byte
	changed map[int]bool // blocks changed while the frame was the newest
}

func newDiskTwin(size int64, p Profile) *flatTwin {
	return &flatTwin{size: size, img: make([]byte, window), prof: p, cached: make([]bool, (size+cachePage-1)/cachePage)}
}

func newFlashTwin(size int64, es int) *flatTwin {
	t := &flatTwin{size: size, blank: 0xFF, img: bytes.Repeat([]byte{0xFF}, window), es: es, erases: make([]int64, size/int64(es))}
	t.moved = map[int]bool{}
	return t
}

// seek is Disk.seekCost.
func (t *flatTwin) seek(off int64) time.Duration {
	if d := max(off-t.lastEnd, t.lastEnd-off); d <= nearDistance {
		return t.prof.Seek / nearSeekDiv
	}
	return t.prof.Seek
}

func kib(n int64) time.Duration { return time.Duration((n + 1023) / 1024) }

// change books bytes [off, off+n) as changed: on flash the blocks they
// overlap move their stamps, and the newest frame holds them.
func (t *flatTwin) change(off, n int64) {
	if t.es == 0 || n <= 0 {
		return
	}
	for b := off / int64(t.es); b <= (off+n-1)/int64(t.es); b++ {
		t.moved[int(b)] = true
		if k := len(t.frames); k > 0 {
			t.frames[k-1].changed[int(b)] = true
		}
	}
}

func (t *flatTwin) readAt(off, n int64) {
	if t.es > 0 {
		t.clock += kib(n) * time.Microsecond
		return
	}
	cold := 0
	for pg := off / cachePage; pg < (off+n+cachePage-1)/cachePage; pg++ {
		if !t.cached[pg] {
			cold++
			t.cached[pg] = true
		}
	}
	if cold > 0 {
		t.reads++
		t.clock += t.seek(off) + time.Duration(cold*cachePage/1024)*t.prof.PerKiB
		t.lastEnd = off + n
	}
	t.clock += kib(n) * t.prof.CachedPerKiB
}

func (t *flatTwin) writeAt(p []byte, off int64) {
	t.change(off, int64(len(p)))
	copy(t.img[off:], p)
	if t.es > 0 {
		t.clock += kib(int64(len(p))) * 8 * time.Microsecond
		return
	}
	for pg := off / cachePage; pg < (off+int64(len(p))+cachePage-1)/cachePage; pg++ {
		t.cached[pg] = true
	}
	t.writes++
	t.clock += t.seek(off) + kib(int64(len(p)))*t.prof.PerKiB
	t.lastEnd = off + int64(len(p))
}

func (t *flatTwin) erase(blk int) {
	t.change(int64(blk*t.es), int64(t.es))
	fill(t.img[blk*t.es:(blk+1)*t.es], 0xFF)
	t.erases[blk]++
	t.clock += 400 * time.Microsecond
}

func (t *flatTwin) open(key uint64) {
	t.frames = append(t.frames, twinFrame{key, slices.Clone(t.img), map[int]bool{}})
	if t.es > 0 {
		t.clock += kib(t.size) * time.Microsecond
		return
	}
	cold := 0
	for pg, c := range t.cached {
		if !c {
			cold++
			t.cached[pg] = true
		}
	}
	if cold > 0 {
		t.reads++
		t.clock += t.prof.Seek + time.Duration(cold*cachePage/1024)*t.prof.PerKiB
	}
	t.clock += time.Duration(t.size/1024) * t.prof.CachedPerKiB
}

// younger folds the blocks of frame i's younger frames into frame i's.
func (t *flatTwin) younger(i int) map[int]bool {
	for _, f := range t.frames[i+1:] {
		for b := range f.changed {
			t.frames[i].changed[b] = true
		}
	}
	return t.frames[i].changed
}

func (t *flatTwin) rewind(i int) {
	for b := range t.younger(i) {
		t.moved[b] = true
	}
	copy(t.img, t.frames[i].img)
	t.frames = t.frames[:i]
	if t.es > 0 {
		for b := range t.erases {
			t.erases[b]++
			t.clock += 400*time.Microsecond + kib(int64(t.es))*8*time.Microsecond
		}
		return
	}
	for pg := range t.cached {
		t.cached[pg] = true
	}
	t.writes++
	t.clock += t.prof.Seek + kib(t.size)*t.prof.PerKiB
	t.lastEnd = t.size
}

// close drops frame i; the next older frame, if any, holds what it
// held.
func (t *flatTwin) close(i int) {
	if i > 0 {
		for b := range t.frames[i].changed {
			t.frames[i-1].changed[b] = true
		}
	}
	t.frames = append(t.frames[:i], t.frames[i+1:]...)
}

func (t *flatTwin) revert(i int, regions []fault.Region) {
	changed := t.younger(i)
	for _, r := range regions {
		lo, hi := r.Off/cachePage*cachePage, min((r.Off+r.Len+cachePage-1)/cachePage*cachePage, window)
		copy(t.img[lo:hi], t.frames[i].img[lo:hi])
		for pg := r.Off / cachePage; t.es == 0 && pg < (r.Off+r.Len+cachePage-1)/cachePage; pg++ {
			t.cached[pg] = false
		}
		for b := range changed {
			if int64(b*t.es) < hi && lo < int64((b+1)*t.es) {
				t.moved[b] = true
			}
		}
	}
	t.lastEnd = 0
	t.frames = t.frames[:i+1]
}

// pages reports the pages the medium holds: in its table and in its
// frames.
func (s *store) pages() int { return s.present + s.undo.held }

// lawMedium is one medium of the law and its twin.
type lawMedium struct {
	disk  *Disk
	flash *MTD
	clk   *simclock.Clock
	twin  *flatTwin
	dev   interface {
		Media
		UndoStats() (frames, arenaBytes int)
	}
	stamps []uint64
	st     *store
}

func lawDisk(size int64) *lawMedium {
	clk := simclock.New()
	d := NewDisk("ram0", size, SSDProfile, clk)
	return &lawMedium{disk: d, clk: clk, twin: newDiskTwin(size, SSDProfile), dev: d, st: &d.s}
}

func lawFlash(size int64) *lawMedium {
	clk := simclock.New()
	m := NewMTD("mtd0", size, 8<<10, clk)
	return &lawMedium{flash: m, clk: clk, twin: newFlashTwin(size, 8<<10), dev: m, stamps: slices.Clone(m.stamps), st: &m.s}
}

// check holds the medium to its twin after a step.
func (m *lawMedium) check(t *testing.T, what string) {
	t.Helper()
	tw := m.twin
	got := make([]byte, window)
	if m.st.read(got, 0); !bytes.Equal(got, tw.img) {
		t.Fatalf("%s: the bytes differ from the flat image's", what)
	}
	if a, b := m.clk.Now(), tw.clock; a != b {
		t.Fatalf("%s: the clock reads %v, the flat image's cost model %v", what, a, b)
	}
	if frames, _ := m.dev.UndoStats(); frames != len(tw.frames) {
		t.Fatalf("%s: %d frames open, want %d", what, frames, len(tw.frames))
	}
	if d := m.disk; d != nil {
		rd, wr := d.Counters()
		if rd != tw.reads || wr != tw.writes || d.lastEnd != tw.lastEnd || !slices.Equal(resident(d), tw.cached) {
			t.Fatalf("%s: reads=%d writes=%d lastEnd=%d, want %d %d %d, or the page cache differs", what, rd, wr, d.lastEnd, tw.reads, tw.writes, tw.lastEnd)
		}
		return
	}
	f := m.flash
	if !slices.Equal(f.EraseCounts(), tw.erases) {
		t.Fatalf("%s: the erase counts differ", what)
	}
	newest := slices.Max(m.stamps)
	for b, s := range f.stamps {
		switch {
		case tw.moved[b] && s <= newest:
			t.Fatalf("%s: block %d's stamp stayed at %d (newest %d), yet its bytes were changed", what, b, s, newest)
		case !tw.moved[b] && s != m.stamps[b]:
			t.Fatalf("%s: block %d's stamp moved from %d to %d, yet nothing changed it", what, b, m.stamps[b], s)
		}
	}
	copy(m.stamps, f.stamps)
	clear(tw.moved)
}

// TestMediaHoldWhatWasWritten is the law of sparse media: a medium holds
// pages for what was written to it, not for its size. One seeded
// sequence — data, zeros and 0xFF written, frames nested three deep and
// rewound, closed and reverted, patches, and on flash erases and
// programs — runs on a 256 KiB and a 64 MiB disk, and on a 256 KiB and a
// 16 MiB flash. A fresh medium holds no page; after every step the two
// sizes hold the same pages, and each medium matches a flat-image twin
// in every byte read, every charge and counter, the page cache, and
// which block stamps moved.
func TestMediaHoldWhatWasWritten(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int64) *lawMedium
		big  int64
	}{{"disk", lawDisk, 64 << 20}, {"flash", lawFlash, 16 << 20}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				media := []*lawMedium{tc.mk(window), tc.mk(tc.big)}
				for _, m := range media {
					if n := m.st.pages(); n != 0 {
						t.Fatalf("a fresh %d-byte medium holds %d pages", m.st.size, n)
					}
				}
				r := rand.New(rand.NewSource(seed))
				var keys []uint64
				next := uint64(1)
				steps := map[string]int{}
				for step := 0; step < 500; step++ {
					what := lawStep(t, r, media, &keys, &next)
					steps[what]++
					for _, m := range media {
						m.check(t, fmt.Sprintf("step %d (%s) on %d bytes", step, what, m.st.size))
					}
					if a, b := media[0].st.pages(), media[1].st.pages(); a != b {
						t.Fatalf("step %d (%s): %d bytes hold %d pages, %d bytes hold %d", step, what, media[0].st.size, a, media[1].st.size, b)
					}
					_, a := media[0].dev.UndoStats()
					if _, b := media[1].dev.UndoStats(); a != b {
						t.Fatalf("step %d (%s): the frames hold %d bytes on the small medium, %d on the big one", step, what, a, b)
					}
				}
				if len(steps) < 10 {
					t.Errorf("the walk took only %v", steps)
				}
			})
		}
	}
}

// lawStep runs one seeded op on every medium and its twin and names it.
func lawStep(t *testing.T, r *rand.Rand, media []*lawMedium, keys *[]uint64, next *uint64) string {
	t.Helper()
	flash := media[0].flash != nil
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	// payload is n bytes to write at off: random data, zeros or 0xFF; on
	// flash masked to clear bits only.
	payload := func(kind int, off int64, n int) []byte {
		p := make([]byte, n)
		switch kind {
		case 0:
			r.Read(p)
		case 2:
			fill(p, 0xFF)
		}
		if flash {
			for i := range p {
				p[i] &= media[0].twin.img[off+int64(i)]
			}
		}
		return p
	}
	span := func() (int64, int) {
		if r.Intn(3) == 0 { // whole pages
			pg := r.Int63n(window / cachePage)
			return pg * cachePage, int(min(int64(1+r.Intn(3))*cachePage, window-pg*cachePage))
		}
		n := 1 + r.Intn(3*cachePage)
		return r.Int63n(window - int64(n) + 1), n
	}
	switch op := r.Intn(12); {
	case op < 3:
		kind := r.Intn(3)
		off, n := span()
		p := payload(kind, off, n)
		for _, m := range media {
			if flash {
				must("Program", m.flash.Program(p, off))
			} else {
				must("WriteAt", m.disk.WriteAt(p, off))
			}
			m.twin.writeAt(p, off)
		}
		return [...]string{"data write", "zero write", "0xFF write"}[kind]
	case op == 3:
		off, n := span()
		for _, m := range media {
			buf := make([]byte, n)
			must("ReadAt", m.dev.ReadAt(buf, off))
			m.twin.readAt(off, int64(n))
			if !bytes.Equal(buf, m.twin.img[off:off+int64(n)]) {
				t.Fatalf("ReadAt(%d, %d) read what the flat image does not hold", off, n)
			}
		}
		return "read"
	case op == 4 && flash:
		blk := r.Intn(window / (8 << 10))
		for _, m := range media {
			must("Erase", m.flash.Erase(blk))
			m.twin.erase(blk)
		}
		return "erase"
	case op == 4:
		// Past the window the big disk reads blank, and charged.
		m := media[1]
		off := window + r.Int63n(m.st.size-window-cachePage)
		buf := make([]byte, cachePage)
		must("ReadAt", m.dev.ReadAt(buf, off))
		if !isBlank(buf, 0) {
			t.Fatal("a page past every write reads non-zero")
		}
		m.twin.readAt(off, cachePage)
		return "read past the window"
	case op < 7 && len(*keys) < 3:
		for _, m := range media {
			must("OpenFrame", m.dev.OpenFrame(*next))
			m.twin.open(*next)
		}
		*keys = append(*keys, *next)
		*next++
		return "OpenFrame"
	case op == 7 && len(*keys) > 0:
		i := r.Intn(len(*keys))
		for _, m := range media {
			must("RewindFrame", m.dev.RewindFrame((*keys)[i]))
			m.twin.rewind(i)
		}
		*keys = (*keys)[:i]
		return "RewindFrame"
	case op == 8 && len(*keys) > 0:
		i := r.Intn(len(*keys))
		for _, m := range media {
			m.dev.CloseFrame((*keys)[i])
			m.twin.close(i)
		}
		*keys = append((*keys)[:i], (*keys)[i+1:]...)
		return "CloseFrame"
	case op == 9 && len(*keys) > 0:
		i := r.Intn(len(*keys))
		var regions []fault.Region
		for n := r.Intn(4); n > 0; n-- {
			off, n := span()
			regions = append(regions, fault.Region{Off: off, Len: int64(n)})
		}
		for _, m := range media {
			must("RevertFrame", m.dev.RevertFrame((*keys)[i], regions))
			m.twin.revert(i, regions)
		}
		*keys = (*keys)[:i+1]
		return "RevertFrame"
	case op == 10:
		var writes []fault.Write
		for n := 1 + r.Intn(3); n > 0; n-- {
			off, n := span()
			p := make([]byte, n)
			if r.Intn(2) == 0 {
				r.Read(p)
			} else {
				fill(p, media[0].twin.blank)
			}
			writes = append(writes, fault.Write{Off: off, Data: p})
		}
		for _, m := range media {
			must("Patch", m.dev.Patch(writes))
			for _, w := range writes {
				m.twin.change(w.Off, int64(len(w.Data)))
				copy(m.twin.img[w.Off:], w.Data)
			}
		}
		return "Patch"
	default:
		return "nothing"
	}
}

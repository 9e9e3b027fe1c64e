package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// touchedDevice is the size of the device a touched-set walk writes on,
// and touchedErase the size of its erase-sized writes.
const (
	touchedDevice = 16 << 10
	touchedErase  = 4 << 10
)

// touchedSeeds are FuzzTouchedSet's corpus, and the first walks
// TestTouchedSetIsTheMergeOfPersistedWrites takes. Each step is four
// bytes: an op, then three operands (see touchedWalk).
var touchedSeeds = [][]byte{
	// Overlapping, adjacent and contained writes, then a zero-length one.
	{0, 0, 0, 3, 1, 0, 16, 3, 2, 0, 8, 2, 3, 0, 0, 0},
	// A window with an erase-sized write, a failed and a torn write in it.
	{5, 0, 0, 0, 0, 16, 0, 1, 9, 0, 0, 0, 1, 8, 0, 4, 10, 7, 0, 0, 2, 0, 0, 9, 6, 0, 0, 0},
	// Writes after the window closed, then a lost log and its reset.
	{5, 0, 0, 0, 0, 1, 0, 5, 6, 0, 0, 0, 1, 2, 0, 5, 7, 0, 0, 0, 0, 3, 0, 5, 8, 0, 0, 0, 4, 4, 0, 5},
	// A log stopped and started again around writes.
	{0, 0, 0, 5, 11, 1, 0, 0, 1, 9, 0, 5, 11, 0, 0, 0, 2, 9, 255, 6, 3, 63, 255, 7},
}

// touchedWalk decodes data into a walk over one injector and checks,
// after every step, that Touched is the sort-and-merge of the range of
// every write that persisted since the log's base, computed here from a
// byte map of the device. Steps are four bytes, op a b c:
//
//	op%12 0-4  a write at (a<<8|b) mod the device size: c%8 picks its
//	           length — zero, erase-sized, a sector, or c*13 bytes
//	      5    StartWindow
//	      6    EndWindow
//	      7    OnControl (a full restore the log cannot see)
//	      8    ResetTouchLog
//	      9    an always-on error rule, once: the next write fails
//	     10    an always-on torn rule, once: the next write keeps a bytes
//	     11    StopTouchLog when a is odd, StartTouchLog when even
func touchedWalk(t *testing.T, data []byte) {
	in := New()
	in.StartTouchLog()
	touching, lost := true, false
	dirty := make([]bool, touchedDevice)
	clear := func() {
		for i := range dirty {
			dirty[i] = false
		}
	}
	for step := 0; len(data) >= 4; step++ {
		op, a, b, c := data[0]%12, data[1], data[2], data[3]
		data = data[4:]
		switch op {
		case 0, 1, 2, 3, 4:
			off := (int64(a)<<8 | int64(b)) % touchedDevice
			n := int(c) * 13
			switch c % 8 {
			case 0:
				n = 0
			case 1:
				n = touchedErase
			case 2:
				n = 512
			}
			n = min(n, touchedDevice-int(off))
			dec := in.OnWrite(off, n)
			land(dec, a)
			if dec.Err == nil && touching && !lost {
				for i := off; i < off+int64(n); i++ {
					dirty[i] = true
				}
			}
		case 5:
			in.StartWindow()
		case 6:
			in.EndWindow()
		case 7:
			in.OnControl()
			lost = lost || touching
		case 8:
			in.ResetTouchLog()
			if touching {
				lost = false
				clear()
			}
		case 9:
			in.AddRule(Rule{Kind: KindError, AtWrite: -1, Off: 0, Len: touchedDevice, Err: errors.New("boom"), AlwaysOn: true, Once: true})
		case 10:
			in.AddRule(Rule{Kind: KindTorn, AtWrite: -1, PersistBytes: int(a), AlwaysOn: true, Once: true})
		case 11:
			if a%2 == 1 {
				in.StopTouchLog()
				touching = false
			} else {
				in.StartTouchLog()
				touching = true
			}
			lost = false
			clear()
		}
		got, ok := in.Touched()
		if want := touching && !lost; ok != want {
			t.Fatalf("step %d (op %d): Touched ok = %v, want %v", step, op, ok, want)
		}
		if !ok {
			continue
		}
		if want := runs(dirty); !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d): Touched = %v, want %v", step, op, got, want)
		}
		// The read into a caller's buffer is the union with what the
		// buffer held: here, a region past the walk's reach and one inside.
		extra := []Region{{Off: touchedDevice + 1, Len: 1}, {Off: int64(b) << 5, Len: 100}}
		union, _ := in.AppendTouched(slices.Clone(extra))
		both := slices.Clone(dirty)
		for i := extra[1].Off; i < extra[1].Off+extra[1].Len; i++ {
			both[i] = true
		}
		if want := append(runs(both), extra[0]); !slices.Equal(union, want) {
			t.Fatalf("step %d (op %d): AppendTouched(%v) = %v, want %v", step, op, extra, union, want)
		}
	}
}

// runs is the sort-and-merge of a byte map: every maximal run of
// written bytes, as a region, in offset order.
func runs(dirty []bool) []Region {
	var rs []Region
	for i := 0; i < len(dirty); i++ {
		if !dirty[i] {
			continue
		}
		j := i
		for j < len(dirty) && dirty[j] {
			j++
		}
		rs = append(rs, Region{Off: int64(i), Len: int64(j - i)})
		i = j
	}
	return rs
}

// TestTouchedSetIsTheMergeOfPersistedWrites: Touched is, after every
// step, the merged ranges of every write that persisted since the log's
// base — over FuzzTouchedSet's corpus and 300 seeded random walks.
func TestTouchedSetIsTheMergeOfPersistedWrites(t *testing.T) {
	for i, seed := range touchedSeeds {
		t.Run(fmt.Sprintf("corpus-%d", i), func(t *testing.T) { touchedWalk(t, seed) })
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		data := make([]byte, 4*(1+rng.Intn(64)))
		rng.Read(data)
		t.Run(fmt.Sprintf("walk-%d", i), func(t *testing.T) {
			t.Logf("steps: %v", data)
			touchedWalk(t, data)
		})
	}
}

// FuzzTouchedSet runs touchedWalk on fuzz bytes.
func FuzzTouchedSet(f *testing.F) {
	for _, seed := range touchedSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		touchedWalk(t, data)
	})
}

// TestTouchLogKeepsBytesOnlyUntilTheWindowCloses: once the window has
// closed, a write under the same log hands the device no buffer, but its
// range still joins Touched, and every crash image of the window replays
// the same bytes as before it.
func TestTouchLogKeepsBytesOnlyUntilTheWindowCloses(t *testing.T) {
	in := New()
	in.StartTouchLog()
	land(in.OnWrite(0, 512), 7) // before the window: logged
	in.StartWindow()
	for i := int64(1); i <= 3; i++ {
		dec := in.OnWrite(i*512, 512)
		if dec.Log == nil {
			t.Fatalf("window write %d has no log buffer", i-1)
		}
		land(dec, byte(i))
	}
	in.EndWindow()
	before := make([][]byte, 3)
	for k := range before {
		before[k] = image(t, in, k, 4096)
	}
	if regions, _ := in.Touched(); !slices.Equal(regions, []Region{{0, 2048}}) {
		t.Fatalf("Touched at the close = %v, want [{0 2048}]", regions)
	}
	for _, w := range []struct {
		off int64
		n   int
	}{{512, 512}, {3072, 1024}, {2048, 1024}} {
		dec := in.OnWrite(w.off, w.n)
		if dec.Log != nil {
			t.Errorf("write at %d after the window closed got a log buffer", w.off)
		}
	}
	regions, ok := in.Touched()
	if want := []Region{{0, 4096}}; !ok || !slices.Equal(regions, want) {
		t.Errorf("Touched = %v, %v; want %v, true", regions, ok, want)
	}
	for k, want := range before {
		if got := image(t, in, k, 4096); !slices.Equal(got, want) {
			t.Errorf("crash image %d changed after the window closed", k)
		}
	}
	// A reset opens the log again: the next window's bytes are kept.
	in.ResetTouchLog()
	in.StartWindow()
	if dec := in.OnWrite(0, 512); dec.Log == nil {
		t.Error("a window after ResetTouchLog keeps no bytes")
	}
}

// TestStartWindowAfterTheLogClosed: a window opened on a log whose window
// has closed marks crash points the log kept no bytes for; they answer
// ErrTouchLogLost, while Touched goes on covering the writes, until a
// reset or a restart opens the log again.
func TestStartWindowAfterTheLogClosed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reopen func(*Injector)
	}{
		{"reset", (*Injector).ResetTouchLog},
		{"restart", (*Injector).StartTouchLog},
	} {
		in := New()
		in.StartTouchLog()
		in.StartWindow()
		land(in.OnWrite(0, 512), 1)
		in.EndWindow()
		in.StartWindow()
		land(in.OnWrite(512, 512), 2)
		if _, fired, err := in.CrashImage(0); !fired || !errors.Is(err, ErrTouchLogLost) {
			t.Errorf("%s: CrashImage(0) of the second window = fired %v, err %v; want fired, ErrTouchLogLost", tc.name, fired, err)
		}
		if regions, ok := in.Touched(); !ok || !slices.Equal(regions, []Region{{0, 1024}}) {
			t.Errorf("%s: Touched = %v, %v; want [{0 1024}], true", tc.name, regions, ok)
		}
		in.EndWindow()
		tc.reopen(in)
		in.StartWindow()
		land(in.OnWrite(1024, 512), 3)
		if img := image(t, in, 0, 2048); img == nil || img[1024] != 3 || img[0] != 0 {
			t.Errorf("%s: crash image 0 after reopening = %v, want the new window's write alone", tc.name, img)
		}
	}
}

package fault

import (
	"errors"
	"sync"
	"testing"
)

func TestNilInjectorIsNoFault(t *testing.T) {
	var in *Injector
	dec := in.OnWrite(0, 512)
	if dec.Err != nil || dec.Persist != -1 || dec.FlipBit != -1 || dec.Log != nil {
		t.Errorf("nil injector decision = %+v, want no-fault", dec)
	}
	if err := in.OnControl(); err != nil {
		t.Errorf("nil injector OnControl = %v", err)
	}
}

func TestErrorRuleAtWriteIndex(t *testing.T) {
	boom := errors.New("boom")
	in := New()
	in.AddRule(Rule{Kind: KindError, AtWrite: 1, Err: boom})

	in.StartWindow()
	if dec := in.OnWrite(0, 512); dec.Err != nil {
		t.Errorf("write 0 faulted: %v", dec.Err)
	}
	if dec := in.OnWrite(512, 512); dec.Err != boom {
		t.Errorf("write 1 err = %v, want boom", dec.Err)
	}
	if dec := in.OnWrite(1024, 512); dec.Err != nil {
		t.Errorf("write 2 faulted: %v", dec.Err)
	}
	in.EndWindow()
	if got := in.WindowWrites(); got != 3 {
		t.Errorf("WindowWrites = %d, want 3", got)
	}
	if got := in.Stats().ErrorsInjected; got != 1 {
		t.Errorf("ErrorsInjected = %d, want 1", got)
	}
}

func TestWindowRelativeRulesInertOutsideWindow(t *testing.T) {
	in := New()
	in.AddRule(Rule{Kind: KindError, AtWrite: -1, Err: errors.New("x")})
	if dec := in.OnWrite(0, 512); dec.Err != nil {
		t.Errorf("window rule fired outside a window: %v", dec.Err)
	}
	in.StartWindow()
	if dec := in.OnWrite(0, 512); dec.Err == nil {
		t.Error("window rule did not fire inside the window")
	}
	in.EndWindow()
	if dec := in.OnWrite(0, 512); dec.Err != nil {
		t.Errorf("window rule fired after EndWindow: %v", dec.Err)
	}
}

func TestAlwaysOnRuleAndShimSemantics(t *testing.T) {
	boom := errors.New("write fault")
	in := New()
	id := in.AddRule(Rule{Kind: KindError, AtWrite: -1, Err: boom, AlwaysOn: true})
	if dec := in.OnWrite(4096, 100); dec.Err != boom {
		t.Errorf("always-on rule inert outside window: %v", dec.Err)
	}
	if err := in.OnControl(); err != boom {
		t.Errorf("OnControl = %v, want boom (fail-all covers restores)", err)
	}
	in.RemoveRule(id)
	if dec := in.OnWrite(4096, 100); dec.Err != nil {
		t.Errorf("removed rule still fires: %v", dec.Err)
	}
	if err := in.OnControl(); err != nil {
		t.Errorf("OnControl after removal = %v", err)
	}
}

func TestByteRangeFilter(t *testing.T) {
	boom := errors.New("range")
	in := New()
	in.AddRule(Rule{Kind: KindError, AtWrite: -1, Off: 1024, Len: 512, Err: boom, AlwaysOn: true})

	cases := []struct {
		off  int64
		n    int
		want bool
	}{
		{0, 512, false},    // entirely below
		{512, 512, false},  // ends exactly at range start
		{1024, 512, true},  // exact
		{1000, 100, true},  // overlaps start
		{1535, 512, true},  // overlaps end
		{1536, 512, false}, // starts exactly at range end
		{0, 4096, true},    // spans the range
	}
	for _, c := range cases {
		dec := in.OnWrite(c.off, c.n)
		if got := dec.Err != nil; got != c.want {
			t.Errorf("write(off=%d, n=%d): fault=%v, want %v", c.off, c.n, got, c.want)
		}
	}
}

func TestTornRulePersistsPrefix(t *testing.T) {
	in := New()
	in.AddRule(Rule{Kind: KindTorn, AtWrite: 0, PersistBytes: 100})
	in.StartWindow()
	dec := in.OnWrite(0, 4096)
	if dec.Persist != 100 {
		t.Errorf("Persist = %d, want 100", dec.Persist)
	}
	// Prefix longer than the write clamps to the write.
	in.AddRule(Rule{Kind: KindTorn, AtWrite: 1, PersistBytes: 1 << 20})
	dec = in.OnWrite(0, 4096)
	if dec.Persist != 4096 {
		t.Errorf("clamped Persist = %d, want 4096", dec.Persist)
	}
	if got := in.Stats().TornInjected; got != 2 {
		t.Errorf("TornInjected = %d, want 2", got)
	}
}

func TestCorruptRuleFlipsOneBit(t *testing.T) {
	in := New()
	in.AddRule(Rule{Kind: KindCorrupt, AtWrite: 0, BitOffset: 37})
	in.StartWindow()
	dec := in.OnWrite(0, 4096)
	if dec.FlipBit != 37 {
		t.Errorf("FlipBit = %d, want 37", dec.FlipBit)
	}
	// Out-of-range bit clamps into the payload.
	in.AddRule(Rule{Kind: KindCorrupt, AtWrite: 1, BitOffset: 1 << 40})
	dec = in.OnWrite(0, 16)
	if dec.FlipBit != 16*8-1 {
		t.Errorf("clamped FlipBit = %d, want %d", dec.FlipBit, 16*8-1)
	}
}

func TestOnceRuleFiresOnce(t *testing.T) {
	boom := errors.New("once")
	in := New()
	in.AddRule(Rule{Kind: KindError, AtWrite: -1, Err: boom, AlwaysOn: true, Once: true})
	if dec := in.OnWrite(0, 512); dec.Err != boom {
		t.Fatal("once rule did not fire")
	}
	if dec := in.OnWrite(0, 512); dec.Err != nil {
		t.Errorf("once rule fired twice: %v", dec.Err)
	}
}

func TestErrorRuleDominatesTorn(t *testing.T) {
	boom := errors.New("dominate")
	in := New()
	in.AddRule(Rule{Kind: KindTorn, AtWrite: 0, PersistBytes: 10})
	in.AddRule(Rule{Kind: KindError, AtWrite: 0, Err: boom})
	in.StartWindow()
	dec := in.OnWrite(0, 512)
	if dec.Err != boom || dec.Persist != -1 {
		t.Errorf("decision = %+v, want error-dominates (Err=boom, Persist=-1)", dec)
	}
}

// land plays the device's part of one logged write: the bytes the media
// holds at the write's range afterwards go into the decision's Log.
func land(dec Decision, fill byte) {
	for i := range dec.Log {
		dec.Log[i] = fill
	}
}

// image renders crash image k over an all-zero base of size bytes; nil
// when point k did not fire.
func image(t *testing.T, in *Injector, k, size int) []byte {
	t.Helper()
	writes, fired, err := in.CrashImage(k)
	if err != nil {
		t.Fatalf("CrashImage(%d): %v", k, err)
	}
	if !fired {
		return nil
	}
	img := make([]byte, size)
	for _, w := range writes {
		copy(img[w.Off:], w.Data)
	}
	return img
}

// TestCrashImageIsTheLogPrefixUpToTheWrite: crash image k holds window
// writes 0..k and nothing later, and looking it up does not consume it.
func TestCrashImageIsTheLogPrefixUpToTheWrite(t *testing.T) {
	in := New()
	in.StartTouchLog()
	land(in.OnWrite(0, 512), 7) // before the window: part of every image
	in.StartWindow()
	land(in.OnWrite(512, 512), 1)
	land(in.OnWrite(1024, 512), 2)
	land(in.OnWrite(1536, 512), 3)
	in.EndWindow()
	for k, want := range [][4]byte{{7, 1, 0, 0}, {7, 1, 2, 0}, {7, 1, 2, 3}} {
		img := image(t, in, k, 2048)
		if img == nil {
			t.Fatalf("window write %d is not a crash point", k)
		}
		if got := [4]byte{img[0], img[512], img[1024], img[1536]}; got != want {
			t.Errorf("crash image %d = %v at the four writes, want %v", k, got, want)
		}
	}
	if image(t, in, 1, 2048) == nil {
		t.Error("a second CrashImage lost the point")
	}
}

// TestEveryPersistedWindowWriteIsACrashPoint: one window marks one log
// position per write that persisted, torn and bit-flipped ones included;
// a write that failed persisted nothing and is no crash point.
func TestEveryPersistedWindowWriteIsACrashPoint(t *testing.T) {
	in := New()
	in.AddRule(Rule{Kind: KindTorn, AtWrite: 0, PersistBytes: 10})
	in.AddRule(Rule{Kind: KindError, AtWrite: 1, Err: errors.New("boom")})
	in.AddRule(Rule{Kind: KindCorrupt, AtWrite: 2, BitOffset: 3})
	in.StartTouchLog()
	in.StartWindow()
	for i := 0; i < 4; i++ {
		land(in.OnWrite(int64(i)*512, 512), byte(10+i))
	}
	in.EndWindow()
	for k, want := range []bool{true, false, true, true} {
		if _, fired, err := in.CrashImage(k); fired != want || err != nil {
			t.Errorf("CrashImage(%d) = fired %v, err %v; want fired %v", k, fired, err, want)
		}
	}
	// The failed write logged nothing: image 2 is image 0 plus write 2.
	img0, img2 := image(t, in, 0, 2048), image(t, in, 2, 2048)
	if img0[0] != 10 || img0[512] != 0 || img0[1024] != 0 {
		t.Errorf("crash image 0 holds [%d %d %d], want [10 0 0]", img0[0], img0[512], img0[1024])
	}
	if img2[0] != 10 || img2[512] != 0 || img2[1024] != 12 {
		t.Errorf("crash image 2 holds [%d %d %d], want [10 0 12]", img2[0], img2[512], img2[1024])
	}
}

func TestCrashPointPastWindowNeverCaptures(t *testing.T) {
	in := New()
	in.StartTouchLog()
	in.StartWindow()
	for i := 0; i < 3; i++ {
		land(in.OnWrite(int64(i)*512, 512), 1)
	}
	in.EndWindow()
	land(in.OnWrite(2048, 512), 1) // after the window: no crash point
	for _, k := range []int{-1, 3, 4, 5} {
		if _, fired, _ := in.CrashImage(k); fired {
			t.Errorf("crash point %d marked, past a 3-write window", k)
		}
	}
}

// TestWindowEndKeepsItsCrashPoints: closing the window, and writing on
// after it, leaves the window's crash points and their images as they
// were.
func TestWindowEndKeepsItsCrashPoints(t *testing.T) {
	in := New()
	in.StartTouchLog()
	in.StartWindow()
	land(in.OnWrite(0, 512), 42)
	in.EndWindow()
	land(in.OnWrite(0, 512), 43)
	if img := image(t, in, 0, 512); img == nil || img[0] != 42 {
		t.Errorf("crash image 0 = %v, want the window's write kept", img)
	}
}

// TestDroppedLogDropsItsCrashPoints: a mark never outlives its log —
// stopping, resetting or restarting the log drops the points marked in
// it.
func TestDroppedLogDropsItsCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(*Injector)
	}{
		{"stop", (*Injector).StopTouchLog},
		{"reset", (*Injector).ResetTouchLog},
		{"restart", (*Injector).StartTouchLog},
	} {
		name := tc.name
		in := New()
		in.StartTouchLog()
		in.StartWindow()
		land(in.OnWrite(0, 512), 9)
		if _, fired, _ := in.CrashImage(0); !fired {
			t.Fatalf("%s: window write 0 is not a crash point", name)
		}
		tc.drop(in)
		if _, fired, _ := in.CrashImage(0); fired {
			t.Errorf("%s: the crash point outlived its log", name)
		}
		// The window goes on: its next write is still point 1.
		land(in.OnWrite(512, 512), 8)
		if _, fired, _ := in.CrashImage(0); fired {
			t.Errorf("%s: the write after the drop revived point 0", name)
		}
		if _, fired, _ := in.CrashImage(1); !fired {
			t.Errorf("%s: window write 1 is not a crash point", name)
		}
	}
}

func TestStartWindowResetsWriteCount(t *testing.T) {
	in := New()
	in.StartWindow()
	in.OnWrite(0, 1)
	in.OnWrite(0, 1)
	in.StartWindow()
	in.OnWrite(0, 1)
	in.EndWindow()
	if got := in.WindowWrites(); got != 1 {
		t.Errorf("WindowWrites = %d after re-open, want 1", got)
	}
}

// TestStartWindowStartsCrashPointsAfresh: the next window's points are
// its own; the last window's are dropped.
func TestStartWindowStartsCrashPointsAfresh(t *testing.T) {
	in := New()
	in.StartTouchLog()
	in.StartWindow()
	land(in.OnWrite(0, 512), 1)
	land(in.OnWrite(512, 512), 2)
	in.StartWindow()
	if _, fired, _ := in.CrashImage(0); fired {
		t.Error("a new window kept a stale crash point")
	}
	land(in.OnWrite(1024, 512), 3)
	if img := image(t, in, 0, 2048); img == nil || img[1024] != 3 {
		t.Errorf("crash image 0 of the new window = %v, want its own write", img)
	}
	if _, fired, _ := in.CrashImage(1); fired {
		t.Error("the new window's point 1 reads as fired after one write")
	}
}

// TestCrashImageWithoutABase: a crash point is a log position, and a
// position means something only over a known base. Marked with the log
// off, or under a log that has since missed a media mutation, the point
// did fire but has no image to give.
func TestCrashImageWithoutABase(t *testing.T) {
	t.Run("log off", func(t *testing.T) {
		in := New()
		in.StartWindow()
		in.OnWrite(0, 512)
		if _, fired, err := in.CrashImage(0); !fired || !errors.Is(err, ErrTouchLogLost) {
			t.Errorf("CrashImage = fired %v, err %v; want fired, ErrTouchLogLost", fired, err)
		}
	})
	t.Run("log lost", func(t *testing.T) {
		in := New()
		in.StartTouchLog()
		in.StartWindow()
		land(in.OnWrite(0, 512), 1)
		in.OnControl() // a full restore the log never saw
		if writes, fired, err := in.CrashImage(0); !fired || !errors.Is(err, ErrTouchLogLost) || writes != nil {
			t.Errorf("CrashImage = %d writes, fired %v, err %v; want none, fired, ErrTouchLogLost", len(writes), fired, err)
		}
		// The reset that follows the next known image drops the point too.
		in.ResetTouchLog()
		if _, fired, _ := in.CrashImage(0); fired {
			t.Error("ResetTouchLog kept a crash point of the lost log")
		}
	})
}

func TestCoalesceRegions(t *testing.T) {
	cases := []struct {
		name string
		in   []Region
		want []Region
	}{
		{"empty", nil, nil},
		{"zero-len dropped", []Region{{0, 0}, {5, -1}}, nil},
		{"disjoint sorted", []Region{{10, 5}, {0, 5}}, []Region{{0, 5}, {10, 5}}},
		{"overlap merges", []Region{{0, 10}, {5, 10}}, []Region{{0, 15}}},
		{"adjacent merges", []Region{{0, 5}, {5, 5}}, []Region{{0, 10}}},
		{"contained absorbed", []Region{{0, 20}, {5, 5}}, []Region{{0, 20}}},
	}
	for _, c := range cases {
		got := CoalesceRegions(c.in)
		if len(got) != len(c.want) {
			t.Errorf("%s: CoalesceRegions = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: CoalesceRegions = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestTouchLogRecordsAndCoalesces(t *testing.T) {
	in := New()
	if _, ok := in.Touched(); ok {
		t.Fatal("Touched ok=true before StartTouchLog")
	}
	in.StartTouchLog()
	in.OnWrite(0, 512)
	in.OnWrite(512, 512)  // adjacent: merges with the first
	in.OnWrite(4096, 100) // disjoint
	regions, ok := in.Touched()
	if !ok {
		t.Fatal("Touched ok=false while recording")
	}
	want := []Region{{0, 1024}, {4096, 100}}
	if len(regions) != 2 || regions[0] != want[0] || regions[1] != want[1] {
		t.Errorf("Touched = %v, want %v", regions, want)
	}

	in.ResetTouchLog()
	regions, ok = in.Touched()
	if !ok || len(regions) != 0 {
		t.Errorf("after ResetTouchLog: regions=%v ok=%v, want empty/true", regions, ok)
	}

	in.StopTouchLog()
	if _, ok := in.Touched(); ok {
		t.Error("Touched ok=true after StopTouchLog")
	}
}

func TestTouchLogLostOnControl(t *testing.T) {
	// A full image restore (OnControl) mutates media invisibly to the
	// log: Touched must answer ok=false until the next reset.
	in := New()
	in.StartTouchLog()
	in.OnWrite(0, 512)
	in.OnControl()
	if _, ok := in.Touched(); ok {
		t.Fatal("Touched ok=true after an unlogged restore")
	}
	in.ResetTouchLog()
	in.OnWrite(0, 16)
	regions, ok := in.Touched()
	if !ok || len(regions) != 1 || regions[0] != (Region{0, 16}) {
		t.Errorf("after reset: regions=%v ok=%v, want [{0 16}]/true", regions, ok)
	}
}

func TestTouchLogSkipsFailedWrites(t *testing.T) {
	boom := errors.New("boom")
	in := New()
	in.AddRule(Rule{Kind: KindError, AtWrite: -1, Err: boom, AlwaysOn: true, Once: true})
	in.StartTouchLog()
	if dec := in.OnWrite(0, 512); dec.Err != boom {
		t.Fatal("error rule did not fire")
	}
	regions, ok := in.Touched()
	if !ok || len(regions) != 0 {
		t.Errorf("failed write logged as touched: regions=%v ok=%v", regions, ok)
	}
}

func TestReadErrorRule(t *testing.T) {
	boom := errors.New("media read fault")
	in := New()
	var nilIn *Injector
	if err := nilIn.OnRead(0, 512); err != nil {
		t.Fatalf("nil injector OnRead = %v", err)
	}
	id := in.AddRule(Rule{Kind: KindReadError, Off: 1024, Len: 512, Err: boom})

	if err := in.OnRead(0, 512); err != nil {
		t.Errorf("read below range faulted: %v", err)
	}
	if err := in.OnRead(1024, 512); err != boom {
		t.Errorf("read in range = %v, want boom", err)
	}
	// Reads are not window-indexed: the rule fires with no window open
	// and inside one alike.
	in.StartWindow()
	if err := in.OnRead(1000, 100); err != boom {
		t.Errorf("overlapping read in window = %v, want boom", err)
	}
	in.EndWindow()
	if got := in.Stats().ReadErrorsInjected; got != 2 {
		t.Errorf("ReadErrorsInjected = %d, want 2", got)
	}
	// Read rules never affect writes.
	if dec := in.OnWrite(1024, 512); dec.Err != nil {
		t.Errorf("read rule failed a write: %v", dec.Err)
	}
	in.RemoveRule(id)

	in.AddRule(Rule{Kind: KindReadError, Err: boom, Once: true})
	if err := in.OnRead(0, 1); err != boom {
		t.Fatal("once read rule did not fire")
	}
	if err := in.OnRead(0, 1); err != nil {
		t.Errorf("once read rule fired twice: %v", err)
	}
}

func TestDeterministicRuleOrder(t *testing.T) {
	// Two error rules match the same write: the lower id must win every
	// time, regardless of map iteration order.
	first := errors.New("first")
	second := errors.New("second")
	for trial := 0; trial < 50; trial++ {
		in := New()
		in.AddRule(Rule{Kind: KindError, AtWrite: 0, Err: first})
		in.AddRule(Rule{Kind: KindError, AtWrite: 0, Err: second})
		in.StartWindow()
		if dec := in.OnWrite(0, 512); dec.Err != first {
			t.Fatalf("trial %d: err = %v, want first-installed rule", trial, dec.Err)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	// Smoke the locking under -race: rule churn, writes, and windowing
	// from racing goroutines must not trip the race detector.
	in := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := in.AddRule(Rule{Kind: KindTorn, AtWrite: i % 7, PersistBytes: i})
				in.OnWrite(int64(i)*512, 512)
				in.RemoveRule(id)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			in.StartWindow()
			in.OnWrite(0, 512)
			in.CrashImage(i % 3)
			in.EndWindow()
			in.WindowWrites()
			in.Stats()
		}
	}()
	wg.Wait()
}

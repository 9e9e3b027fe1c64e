package memmodel

import (
	"sync"
	"testing"
	"time"

	"mcfs/internal/simclock"
)

func smallConfig() Config {
	return Config{
		RAMBytes:    1 << 20, // 1 MiB
		SwapBytes:   4 << 20,
		SwapOutCost: 10 * time.Microsecond,
		SwapInCost:  12 * time.Microsecond,
	}
}

func TestStoreWithinRAMIsFree(t *testing.T) {
	clk := simclock.New()
	m := New(smallConfig(), clk)
	if err := m.Store(256 * 1024); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 0 {
		t.Errorf("in-RAM store charged %v", clk.Now())
	}
	if m.Stats().SwapBytes != 0 {
		t.Errorf("swap used: %d", m.Stats().SwapBytes)
	}
}

func TestStoreOverflowsToSwap(t *testing.T) {
	clk := simclock.New()
	m := New(smallConfig(), clk)
	if err := m.Store(2 << 20); err != nil { // 2 MiB > 1 MiB RAM
		t.Fatal(err)
	}
	st := m.Stats()
	if st.SwapBytes == 0 {
		t.Fatal("no swap used despite RAM overflow")
	}
	if clk.Now() == 0 {
		t.Error("swap-out charged no time")
	}
}

func TestOutOfMemory(t *testing.T) {
	m := New(smallConfig(), simclock.New())
	if err := m.Store(10 << 20); err == nil { // > RAM + swap
		t.Error("no error when exceeding RAM+swap")
	}
}

func TestReleaseShrinksFootprint(t *testing.T) {
	m := New(smallConfig(), simclock.New())
	if err := m.Store(2 << 20); err != nil {
		t.Fatal(err)
	}
	m.Release(2 << 20)
	st := m.Stats()
	if st.StoredBytes != 0 || st.SwapBytes != 0 {
		t.Errorf("after release: %+v", st)
	}
	// Over-release clamps.
	m.Release(1 << 20)
	if m.Stats().StoredBytes != 0 {
		t.Error("negative stored bytes")
	}
}

func TestFetchChargesWhenSwapped(t *testing.T) {
	clk := simclock.New()
	m := New(smallConfig(), clk)
	if err := m.Store(4 << 20); err != nil { // mostly swapped
		t.Fatal(err)
	}
	before := clk.Now()
	charged := false
	for i := 0; i < 50; i++ {
		m.Fetch(256*1024, 0)
		if clk.Now() > before {
			charged = true
			break
		}
	}
	if !charged {
		t.Error("50 cold fetches with 3/4 swap fraction charged nothing")
	}
	// Perfectly hot fetches never swap in.
	before = clk.Now()
	for i := 0; i < 50; i++ {
		m.Fetch(256*1024, 1)
	}
	if clk.Now() != before {
		t.Error("hot fetch charged swap-in")
	}
}

func TestDeterministicRandom(t *testing.T) {
	run := func() time.Duration {
		clk := simclock.New()
		m := New(smallConfig(), clk)
		if err := m.Store(4 << 20); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			m.Fetch(64*1024, 0.3)
		}
		return clk.Now()
	}
	if run() != run() {
		t.Error("fetch randomness not deterministic")
	}
}

func TestDefaultConfigMatchesPaperVM(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.RAMBytes != 64<<30 {
		t.Errorf("RAM = %d, want 64 GiB (the paper's VM)", cfg.RAMBytes)
	}
	if cfg.SwapBytes != 128<<30 {
		t.Errorf("swap = %d, want 128 GiB", cfg.SwapBytes)
	}
}

// table stands in for the watched visited set: a size a peer's
// goroutine grows while the model's owner reads it.
type table struct {
	mu    sync.Mutex
	bytes int64 // guarded by mu
}

func (t *table) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

func (t *table) grow(n int64) {
	t.mu.Lock()
	t.bytes += n
	t.mu.Unlock()
}

func TestSharedVisitedAccounting(t *testing.T) {
	clk := simclock.New()
	m := New(smallConfig(), clk)
	var set table
	m.Watch(&set)
	// Fill RAM to just under the budget.
	if err := m.Store(1<<20 - 1024); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SwapBytes != 0 {
		t.Fatal("store spilled before shared pressure was applied")
	}
	// A watched table claiming RAM squeezes the stored states out.
	set.grow(100 * SharedVisitedEntryBytes)
	if err := m.Store(1024); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.SharedVisitedBytes != 100*SharedVisitedEntryBytes {
		t.Errorf("SharedVisitedBytes = %d, want %d", st.SharedVisitedBytes, 100*SharedVisitedEntryBytes)
	}
	if st.SwapBytes == 0 {
		t.Error("shared visited-table pressure caused no swap spill")
	}

	// Nil receiver and concurrent growth must both be safe.
	var nilModel *Model
	nilModel.Watch(&set)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			set.grow(SharedVisitedEntryBytes)
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		m.ramAvailable()
	}
	<-done
	want := int64((100 + 1000) * SharedVisitedEntryBytes)
	if got := m.Stats().SharedVisitedBytes; got != want {
		t.Errorf("after concurrent growth: %d, want %d", got, want)
	}
}

func TestPeakBytesHighWaterMark(t *testing.T) {
	m := New(Config{RAMBytes: 1 << 20}, nil)
	set := table{bytes: 96}
	m.Watch(&set)
	if p := m.Stats().PeakBytes; p != 0 {
		t.Errorf("fresh model peak = %d, want 0", p)
	}
	if err := m.Store(1000); err != nil {
		t.Fatal(err)
	}
	peak := m.Stats().PeakBytes
	if want := int64(1000 + 96); peak != want {
		t.Errorf("peak after store = %d, want %d", peak, want)
	}
	// Releasing state must not lower the high-water mark.
	m.Release(1000)
	if err := m.Store(500); err != nil {
		t.Fatal(err)
	}
	if p := m.Stats().PeakBytes; p != peak {
		t.Errorf("peak after release+smaller store = %d, want %d", p, peak)
	}
	// Table growth raises the footprint past the old mark at the next
	// store.
	set.grow(50 * SharedVisitedEntryBytes)
	if err := m.Store(500); err != nil {
		t.Fatal(err)
	}
	if p := m.Stats().PeakBytes; p <= peak {
		t.Errorf("peak after table growth = %d, want > %d", p, peak)
	}
}

package visited

import (
	"runtime"
	"sync"
	"testing"
)

// TestMigrationUnderChurn is the -race test for live downgrades: many
// workers visiting while another goroutine migrates the table
// exact→compact→bitstate mid-flight. Every state visited before its
// worker finished must still be recognized as seen, the novel counter
// must equal the number of distinct states (workers use disjoint
// ranges), and a watching memory model must end up seeing exactly the
// final table's footprint.
func TestMigrationUnderChurn(t *testing.T) {
	const (
		workers   = 8
		perWorker = 2000
	)
	set := NewSet(NewExact())
	mem := watched(set)
	// The Bloom array is sized so generously (4 MB for ~16k states) that
	// a false "seen" would mean a hashing bug, not expected omission —
	// the per-visit collision odds are ~3e-9.
	const bloomBytes = 1 << 22

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			base := w * perWorker
			for i := 0; i < perWorker; i++ {
				novel, _ := set.Visit(st(base+i), i%7)
				if !novel {
					t.Errorf("worker %d: state %d not novel on first visit", w, base+i)
					return
				}
			}
		}(w)
	}
	// The migrator races the workers: two live downgrades while visits
	// stream in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for set.NovelCount() < workers*perWorker/3 {
			runtime.Gosched()
		}
		set.migrate(bloomBytes)
		for set.NovelCount() < 2*workers*perWorker/3 {
			runtime.Gosched()
		}
		set.migrate(bloomBytes)
	}()
	close(start)
	wg.Wait()

	if got := set.Fidelity(); got != FidelityBitstate {
		t.Fatalf("Fidelity after churn = %v, want bitstate", got)
	}
	if got := set.NovelCount(); got != workers*perWorker {
		t.Fatalf("NovelCount = %d, want %d", got, workers*perWorker)
	}
	// Membership survived both live migrations.
	for i := 0; i < workers*perWorker; i++ {
		if novel, _ := set.Visit(st(i), 0); novel {
			t.Fatalf("state %d lost during live migration", i)
		}
	}
	// The model sees exactly the final table's footprint.
	if got, want := mem.Stats().SharedVisitedBytes, set.Bytes(); got != want {
		t.Fatalf("model sees %d bytes, table holds %d", got, want)
	}
}

// TestConcurrentVisitLedger checks the visit path alone under -race:
// concurrent visits on a stable exact table count, and grow the table,
// exactly once per novel state.
func TestConcurrentVisitLedger(t *testing.T) {
	const (
		workers = 8
		states  = 1000
	)
	set := NewSet(NewExact())
	mem := watched(set)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// All workers visit the same states: exactly one wins novelty
			// for each.
			for i := 0; i < states; i++ {
				set.Visit(st(i), i%5)
			}
		}()
	}
	wg.Wait()

	if got := set.NovelCount(); got != states {
		t.Fatalf("NovelCount = %d, want %d", got, states)
	}
	if got, want := mem.Stats().SharedVisitedBytes, int64(states*ExactEntryBytes); got != want {
		t.Fatalf("model sees %d bytes, want %d", got, want)
	}
}

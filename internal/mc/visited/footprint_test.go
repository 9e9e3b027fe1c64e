package visited

import (
	"runtime"
	"sync"
	"testing"

	"mcfs/internal/memmodel"
)

// watched returns a memory model that accounts for set: its footprint
// is the bytes it stored plus the set's.
func watched(set *Set) *memmodel.Model {
	mem := newTestMem()
	mem.Watch(set)
	return mem
}

// footprintLaw is the accounting invariant: at a quiescent point a
// model's footprint is what it stored plus what the set it accounts for
// holds right now — whatever evictions and migrations came before.
func footprintLaw(t *testing.T, label string, mem *memmodel.Model, set *Set) {
	t.Helper()
	if got, want := mem.Footprint(), mem.Stats().StoredBytes+set.Bytes(); got != want {
		t.Fatalf("%s: footprint %d, want stored %d + table %d = %d",
			label, got, mem.Stats().StoredBytes, set.Bytes(), want)
	}
}

// TestFootprintLawGovernedRun drives a set the way the engine does —
// visit, let the governor look, retain a concrete state while the table
// is exact — under a budget tight enough for depth-layer evictions and
// both migrations, and holds the law after every step.
func TestFootprintLawGovernedRun(t *testing.T) {
	const stateBytes = 200
	set := NewSet(NewExact())
	mem := watched(set)
	mem.SetBudget(40000, 0, 0)
	gov := NewGovernor(set, GovernorConfig{BitstateBytes: 1 << 16})

	var novels, retained int64
	for i := 0; i < 3000; i++ {
		novel, _ := set.Visit(st(i), i%6)
		if novel {
			novels++
			gov.Maybe(mem)
			if set.Fidelity() == FidelityExact {
				if err := mem.Store(stateBytes); err != nil {
					t.Fatal(err)
				}
				retained += stateBytes
			} else if retained > 0 {
				mem.Release(retained)
				retained = 0
			}
		}
		footprintLaw(t, "governed run", mem, set)
	}
	if gov.Evictions() == 0 || gov.Downgrades() != 2 || set.Fidelity() != FidelityBitstate {
		t.Fatalf("run saw %d evictions, %d downgrades, ended %v: want evictions and both migrations",
			gov.Evictions(), gov.Downgrades(), set.Fidelity())
	}
	if got := set.NovelCount(); got != novels {
		t.Fatalf("NovelCount = %d, visits reported %d novel states", got, novels)
	}
}

// TestFootprintLawUnderChurn races four visiting goroutines against a
// migration, twice, and holds the law and an exact NovelCount at each
// point where they have all returned.
func TestFootprintLawUnderChurn(t *testing.T) {
	const (
		workers   = 4
		perWorker = 1500
	)
	set := NewSet(NewExact())
	mem := watched(set)
	if err := mem.Store(1000); err != nil {
		t.Fatal(err)
	}
	footprintLaw(t, "before churn", mem, set)
	for phase, want := range []Fidelity{FidelityCompact, FidelityBitstate} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(base int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					set.Visit(st(base+i), i%7)
				}
			}((phase*workers + w) * perWorker)
		}
		wg.Add(1)
		go func(half int64) {
			defer wg.Done()
			for set.NovelCount() < half {
				runtime.Gosched()
			}
			set.migrate(1 << 22)
		}(int64((2*phase + 1) * workers * perWorker / 2))
		wg.Wait()
		if got := set.Fidelity(); got != want {
			t.Fatalf("phase %d: fidelity %v, want %v", phase, got, want)
		}
		footprintLaw(t, want.String(), mem, set)
		// Every worker visited its own fresh range, and the 4 MB array is
		// far too sparse for a false match.
		if got, want := set.NovelCount(), int64((phase+1)*workers*perWorker); got != want {
			t.Fatalf("phase %d: NovelCount = %d, want %d", phase, got, want)
		}
	}
}

// TestFootprintLawForATableBornReduced holds the law for a set that
// starts on a reduced backend instead of migrating there.
func TestFootprintLawForATableBornReduced(t *testing.T) {
	for _, kind := range []Kind{KindCompact, KindBitstate} {
		tbl, err := NewTable(kind, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		set := NewSet(tbl)
		mem := watched(set)
		for i := 0; i < 100; i++ {
			set.Visit(st(i), i%5)
		}
		if set.Bytes() == 0 {
			t.Fatalf("%s: the table reports no footprint", kind)
		}
		footprintLaw(t, string(kind), mem, set)
	}
}

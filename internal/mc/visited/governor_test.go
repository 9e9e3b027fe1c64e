package visited

import (
	"testing"

	"mcfs/internal/memmodel"
)

// newTestMem builds a model that stores nothing unless the test does,
// so SetBudget watermarks act on exactly the bytes of the set it
// watches.
func newTestMem() *memmodel.Model {
	return memmodel.New(memmodel.Config{}, nil)
}

// TestGovernorPressureSchedule drives a deterministic pressure
// schedule — fill to soft, fill to hard, fill to hard again — and
// asserts the exact action sequence: depth-layer eviction, then
// exact→compact, then compact→bitstate, then nothing.
func TestGovernorPressureSchedule(t *testing.T) {
	set := NewSet(NewExact())
	mem := watched(set)

	type action struct {
		kind  string // "evict" or "downgrade"
		n     int
		depth int
		from  Fidelity
		to    Fidelity
	}
	var actions []action
	gov := NewGovernor(set, GovernorConfig{
		BitstateBytes: 1 << 10,
		Hooks: Hooks{
			OnEvict: func(n, depth int) {
				actions = append(actions, action{kind: "evict", n: n, depth: depth})
			},
			OnDowngrade: func(from, to Fidelity, _ float64) {
				actions = append(actions, action{kind: "downgrade", from: from, to: to})
			},
		},
	})
	if got := set.Governor(); got != gov {
		t.Fatal("NewGovernor must attach itself to the set")
	}

	// 100 states across depths 0..4: 100 * ExactEntryBytes of table.
	for i := 0; i < 100; i++ {
		set.Visit(st(i), i%5)
	}
	footprint := int64(100 * ExactEntryBytes)
	if got := mem.Footprint(); got != footprint {
		t.Fatalf("footprint = %d, want %d", got, footprint)
	}

	// No budget: no pressure, no action.
	gov.Maybe(mem)
	if len(actions) != 0 {
		t.Fatalf("ungoverned Maybe acted: %+v", actions)
	}

	// Budget placing the footprint between soft (85%) and hard (95%):
	// one Maybe evicts exactly the deepest layer (20 entries at depth 4).
	budget := footprint*100/90 + 1 // footprint ≈ 90% of budget
	mem.SetBudget(budget, 0, 0)
	gov.Maybe(mem)
	if len(actions) != 1 || actions[0].kind != "evict" || actions[0].n != 20 || actions[0].depth != 4 {
		t.Fatalf("soft pressure actions = %+v, want one evict of 20 at depth 4", actions)
	}
	if got := gov.Evictions(); got != 20 {
		t.Fatalf("Evictions = %d, want 20", got)
	}
	// The eviction relieved the pressure; the next Maybe is idle.
	if got := mem.Footprint(); got != int64(80*ExactEntryBytes) {
		t.Fatalf("footprint after evict = %d, want %d", got, 80*ExactEntryBytes)
	}
	gov.Maybe(mem)
	if len(actions) != 1 {
		t.Fatalf("relieved Maybe acted: %+v", actions)
	}

	// Tighten the budget past the hard watermark: one Maybe migrates
	// exact→compact (never more than one action per call).
	mem.SetBudget(int64(80*ExactEntryBytes), 0, 0)
	gov.Maybe(mem)
	if len(actions) != 2 || actions[1].kind != "downgrade" ||
		actions[1].from != FidelityExact || actions[1].to != FidelityCompact {
		t.Fatalf("hard pressure actions = %+v, want exact->compact downgrade", actions)
	}
	if got := set.Fidelity(); got != FidelityCompact {
		t.Fatalf("Fidelity = %v, want compact", got)
	}
	// The model sees the compact footprint.
	if got, want := mem.Footprint(), int64(80*CompactEntryBytes); got != want {
		t.Fatalf("footprint after migration = %d, want %d", got, want)
	}

	// Hard pressure again: compact→bitstate, and the governor is done.
	mem.SetBudget(1, 0, 0)
	gov.Maybe(mem)
	if len(actions) != 3 || actions[2].from != FidelityCompact || actions[2].to != FidelityBitstate {
		t.Fatalf("second hard pressure actions = %+v, want compact->bitstate", actions)
	}
	if got := set.Fidelity(); got != FidelityBitstate {
		t.Fatalf("Fidelity = %v, want bitstate", got)
	}
	if got := gov.Downgrades(); got != 2 {
		t.Fatalf("Downgrades = %d, want 2", got)
	}

	// Terminal: nothing lower, no further actions ever.
	gov.Maybe(mem)
	if gov.Relieve(mem) {
		t.Fatal("Relieve after bitstate must report no relief")
	}
	if len(actions) != 3 {
		t.Fatalf("terminal governor acted: %+v", actions)
	}
}

// TestGovernorSoftOnReducedBackend checks soft pressure is a no-op once
// the table has nothing evictable (reduced backends keep no depth
// layers).
func TestGovernorSoftOnReducedBackend(t *testing.T) {
	set := NewSet(NewCompact())
	mem := watched(set)
	gov := NewGovernor(set, GovernorConfig{BitstateBytes: 1 << 10})
	for i := 0; i < 100; i++ {
		set.Visit(st(i), i%5)
	}
	// Soft but not hard.
	mem.SetBudget(int64(100*CompactEntryBytes)*100/90+1, 0, 0)
	gov.Maybe(mem)
	if got := gov.Evictions(); got != 0 {
		t.Fatalf("Evictions on compact = %d, want 0", got)
	}
	if got := set.Fidelity(); got != FidelityCompact {
		t.Fatalf("soft pressure migrated a compact table to %v", got)
	}
}

// TestGovernorMaxEvictRounds checks the eviction budget: after the
// configured rounds, soft pressure stops evicting (hard pressure still
// migrates).
func TestGovernorMaxEvictRounds(t *testing.T) {
	set := NewSet(NewExact())
	mem := watched(set)
	gov := NewGovernor(set, GovernorConfig{BitstateBytes: 1 << 10, MaxEvictRounds: 1})
	for i := 0; i < 100; i++ {
		set.Visit(st(i), i%5)
	}
	mem.SetBudget(int64(100*ExactEntryBytes)*100/90+1, 0, 0)
	gov.Maybe(mem)
	first := gov.Evictions()
	if first == 0 {
		t.Fatal("first soft Maybe should evict")
	}
	// Re-arm soft pressure at the reduced footprint and try again: the
	// round budget is spent.
	mem.SetBudget(mem.Footprint()*100/90+1, 0, 0)
	gov.Maybe(mem)
	if got := gov.Evictions(); got != first {
		t.Fatalf("Evictions after round budget spent = %d, want %d", got, first)
	}
}

// TestGovernorEvictFloor checks protected shallow layers survive even
// under sustained soft pressure.
func TestGovernorEvictFloor(t *testing.T) {
	set := NewSet(NewExact())
	mem := watched(set)
	gov := NewGovernor(set, GovernorConfig{BitstateBytes: 1 << 10, EvictFloor: 2})
	for i := 0; i < 100; i++ {
		set.Visit(st(i), i%5)
	}
	// Keep the budget pinned just below the footprint so every Maybe
	// sees soft pressure until the table cannot shrink further.
	for round := 0; round < 16; round++ {
		mem.SetBudget(mem.Footprint()*100/90+1, 0, 0)
		gov.Maybe(mem)
	}
	// Depths 0, 1, 2 are protected: 60 of the 100 entries survive.
	if got := set.Len(); got != 60 {
		t.Fatalf("Len after floor-bounded eviction = %d, want 60", got)
	}
}

// TestGovernorRelieve checks the emergency path migrates immediately —
// no eviction detour — and reports relief so the caller retries.
func TestGovernorRelieve(t *testing.T) {
	set := NewSet(NewExact())
	mem := watched(set)
	gov := NewGovernor(set, GovernorConfig{BitstateBytes: 1 << 10})
	for i := 0; i < 50; i++ {
		set.Visit(st(i), i%5)
	}
	if !gov.Relieve(mem) {
		t.Fatal("Relieve on an exact table must migrate")
	}
	if got := set.Fidelity(); got != FidelityCompact {
		t.Fatalf("Fidelity after Relieve = %v, want compact", got)
	}
	if !gov.Relieve(mem) {
		t.Fatal("second Relieve must migrate to bitstate")
	}
	if gov.Relieve(mem) {
		t.Fatal("third Relieve must report nothing left")
	}
	if got := gov.Downgrades(); got != 2 {
		t.Fatalf("Downgrades = %d, want 2", got)
	}
}

// TestNilGovernor checks the nil governor is inert on every method —
// the engine calls Maybe unconditionally on its hot path.
func TestNilGovernor(t *testing.T) {
	var g *Governor
	g.Maybe(newTestMem())
	if g.Relieve(newTestMem()) {
		t.Fatal("nil Relieve must be false")
	}
	if g.Evictions() != 0 || g.Downgrades() != 0 {
		t.Fatal("nil counters must be zero")
	}
}

// TestWatchingModelsSeeTheTableAcrossMigration is the accounting check:
// a model told to watch before any visits and one told mid-flight both
// see exactly the table's current footprint across evictions and both
// migrations.
func TestWatchingModelsSeeTheTableAcrossMigration(t *testing.T) {
	set := NewSet(NewExact())
	early := watched(set)

	check := func(label string) {
		t.Helper()
		want := set.Bytes()
		if got := early.Stats().SharedVisitedBytes; got != want {
			t.Fatalf("%s: early model sees %d, table holds %d", label, got, want)
		}
	}

	for i := 0; i < 300; i++ {
		set.Visit(st(i), i%6)
	}
	check("after visits")

	// A model told now sees the full current footprint.
	late := watched(set)
	if got, want := late.Stats().SharedVisitedBytes, set.Bytes(); got != want {
		t.Fatalf("late watcher sees %d, want %d", got, want)
	}

	set.evictDeepest(1)
	check("after evict")

	set.migrate(1 << 10)
	check("after exact->compact")
	for i := 300; i < 400; i++ {
		set.Visit(st(i), 0)
	}
	check("after compact visits")

	set.migrate(1 << 10)
	check("after compact->bitstate")
	for i := 400; i < 500; i++ {
		set.Visit(st(i), 0)
	}
	check("after bitstate visits")

	// Both models agree: there is one table to read.
	if e, l := early.Stats().SharedVisitedBytes, late.Stats().SharedVisitedBytes; e != l {
		t.Fatalf("early sees %d, late sees %d", e, l)
	}
}

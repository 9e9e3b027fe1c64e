package visited

import (
	"sync"

	"mcfs/internal/memmodel"
)

// Hooks are the governor's observability callbacks, fixed when it is
// built. They are invoked from whichever worker triggered the action,
// under the governor's mutex and after the set's lock is released, so
// an observer sees the actions in the order they happened.
type Hooks struct {
	// OnEvict fires after a depth-layer eviction: n entries at depth
	// went.
	OnEvict func(n, depth int)
	// OnDowngrade fires after a fidelity migration, with the new
	// backend's omission estimate at the moment of the switch.
	OnDowngrade func(from, to Fidelity, omission float64)
}

// GovernorConfig tunes the degradation policy.
type GovernorConfig struct {
	// BitstateBytes sizes the Bloom array a compact→bitstate migration
	// builds (DefaultBitstateBytes when <= 0).
	BitstateBytes int64
	// EvictFloor protects depth layers <= floor from eviction
	// (default 1: never evict near-root knowledge).
	EvictFloor int
	// MaxEvictRounds caps depth-layer evictions before the governor
	// stops trying eviction (default 8); hard pressure then migrates.
	MaxEvictRounds int
	// Hooks are the observability callbacks.
	Hooks Hooks
}

// Governor watches a memory model's footprint against its budget and
// degrades the visited set instead of letting the run die: under soft
// pressure it evicts the exact table's deepest (cheapest-to-lose) depth
// layers; under hard pressure it migrates exact→compact→bitstate. One
// action per Maybe call keeps the schedule deterministic for a given
// exploration sequence.
//
// A nil *Governor is valid and does nothing — the engine calls Maybe
// unconditionally on its hot path.
type Governor struct {
	set *Set
	cfg GovernorConfig

	// mu makes a pressure reading, the one action it leads to and that
	// action's hook one step. It is taken before the set's lock, never
	// under it.
	mu          sync.Mutex
	spent       bool  // guarded by mu; reached bitstate, no further relief possible
	evictRounds int   // guarded by mu
	evictions   int64 // guarded by mu; entries evicted
	downgrades  int64 // guarded by mu
}

// NewGovernor builds a governor over the set and attaches it. Call
// memmodel.SetBudget on each watched model to define the watermarks;
// Maybe is a no-op for models without a budget.
func NewGovernor(s *Set, cfg GovernorConfig) *Governor {
	if cfg.BitstateBytes <= 0 {
		cfg.BitstateBytes = DefaultBitstateBytes
	}
	if cfg.EvictFloor <= 0 {
		cfg.EvictFloor = 1
	}
	if cfg.MaxEvictRounds <= 0 {
		cfg.MaxEvictRounds = 8
	}
	g := &Governor{set: s, cfg: cfg}
	s.mu.Lock()
	s.gov = g
	s.mu.Unlock()
	return g
}

// Evictions reports entries evicted so far. Safe on a nil governor.
func (g *Governor) Evictions() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evictions
}

// Downgrades reports fidelity migrations so far. Safe on a nil
// governor.
func (g *Governor) Downgrades() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.downgrades
}

// Maybe checks m's pressure and takes at most one degradation action.
// Called by the engine on every novel visit. m must be the calling
// worker's own model (Pressure reads owner-goroutine fields). Safe on a
// nil governor.
func (g *Governor) Maybe(m *memmodel.Model) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.spent {
		return
	}
	switch m.Pressure() {
	case memmodel.PressureSoft:
		// Soft: cheap relief only. Evict the exact table's deepest
		// layer while rounds remain; reduced backends have nothing
		// evictable.
		if g.evictRounds >= g.cfg.MaxEvictRounds {
			return
		}
		g.evictRounds++
		if n, depth := g.set.evictDeepest(g.cfg.EvictFloor); n > 0 {
			g.evictions += int64(n)
			if g.cfg.Hooks.OnEvict != nil {
				g.cfg.Hooks.OnEvict(n, depth)
			}
		}
	case memmodel.PressureHard:
		g.migrateLocked()
	}
}

// Relieve is the emergency path: the memory model just refused a Store.
// It migrates one fidelity level immediately (eviction is too little,
// too late at this point) and reports whether anything changed — the
// caller retries the Store once on true. Safe on a nil governor.
func (g *Governor) Relieve(m *memmodel.Model) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.spent && g.migrateLocked()
}

// migrateLocked downgrades one level under g.mu, firing hooks and
// noting terminal bitstate.
func (g *Governor) migrateLocked() bool {
	from, to, omission := g.set.migrate(g.cfg.BitstateBytes)
	g.spent = to == from || to == FidelityBitstate
	if to == from {
		return false
	}
	g.downgrades++
	if g.cfg.Hooks.OnDowngrade != nil {
		g.cfg.Hooks.OnDowngrade(from, to, omission)
	}
	return true
}

package visited

import (
	"sync"

	"mcfs/internal/abstraction"
)

// Set is the visited-state store a run, or a whole swarm, explores
// against: one Table behind one mutex. Every access — a worker's visit,
// a seed, a size query, an eviction, a migration that replaces the
// table — holds that lock, so the tables themselves are plain data. A
// memory model that accounts for the set reads Bytes when it needs the
// number (memmodel.Model.Watch); nothing is billed, so what a model
// sees is the table's size now, whatever evictions and migrations came
// before and whichever backend the set was built on.
type Set struct {
	mu    sync.Mutex
	table Table     // guarded by mu
	novel int64     // guarded by mu; discoveries (excludes seeds), stable across migration
	gov   *Governor // guarded by mu
}

// NewSet wraps a backend table. A nil table gets a fresh exact one.
func NewSet(t Table) *Set {
	if t == nil {
		t = NewExact()
	}
	return &Set{table: t}
}

// Visit records st at depth (the backend's novel/expand semantics).
func (s *Set) Visit(st abstraction.State, depth int) (novel, expand bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	novel, expand = s.table.Visit(st, depth)
	if novel {
		s.novel++
	}
	return novel, expand
}

// Seed preloads prior knowledge: recorded like any visit (the
// shallowest depth is kept on duplicates), never counted in NovelCount.
func (s *Set) Seed(st abstraction.State, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table.Visit(st, depth)
}

// Len reports the table's entry count.
func (s *Set) Len() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Len()
}

// Bytes reports the table's modeled footprint.
func (s *Set) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Bytes()
}

// NovelCount reports discoveries (excluding seeds) — stable across
// migrations, unlike the table's Len.
func (s *Set) NovelCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.novel
}

// Fidelity reports the current backend's precision.
func (s *Set) Fidelity() Fidelity {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Fidelity()
}

// Omission reports the current backend's estimated omission
// probability.
func (s *Set) Omission() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Omission()
}

// Export snapshots the table for resume, or returns the backend's
// typed ErrNoExport refusal.
func (s *Set) Export() ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Export()
}

// Governor returns the attached governor (nil when ungoverned; a nil
// *Governor is safe to call).
func (s *Set) Governor() *Governor {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gov
}

// evictDeepest drops the exact table's deepest depth layer (no-op on
// other backends). Returns the evicted count and layer depth.
func (s *Set) evictDeepest(floor int) (evicted, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ex, ok := s.table.(*Exact)
	if !ok {
		return 0, -1
	}
	return ex.EvictDeepest(floor)
}

// migrate downgrades the table one fidelity level — exact→compact or
// compact→bitstate — preserving membership: every recorded fingerprint
// is replayed into the new backend, minimum depths kept where the
// target keeps depths. Reports the transition taken; from == to means
// there was nothing lower to go.
func (s *Set) migrate(bitstateBytes int64) (from, to Fidelity, omission float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from = s.table.Fidelity()
	switch old := s.table.(type) {
	case *Exact:
		next := NewCompact()
		for st, depth := range old.m {
			next.m.visit(fingerprint(st), int(depth))
		}
		s.table = next
	case *Compact:
		next := NewBitstate(bitstateBytes, 0)
		for fp := range old.m {
			next.visitFP(fp)
		}
		s.table = next
	}
	return from, s.table.Fidelity(), s.table.Omission()
}

package visited

import (
	"math"

	"mcfs/internal/abstraction"
)

// Compact is Wolper/Leroy hash compaction: each state is reduced to a
// 64-bit fingerprint, a third of the exact entry's footprint. Two
// distinct states that collide on a fingerprint silently merge — the
// second is never explored — so matching keeps the depth-bounded
// re-expansion rule but admits omissions at the birthday rate n²/2⁶⁵.
// The full keys are gone, so Export refuses.
type Compact struct {
	m depths[uint64]
}

// NewCompact returns an empty hash-compaction table.
func NewCompact() *Compact { return &Compact{m: depths[uint64]{}} }

// Visit implements Table.
func (t *Compact) Visit(st abstraction.State, depth int) (novel, expand bool) {
	return t.m.visit(fingerprint(st), depth)
}

// Len implements Table.
func (t *Compact) Len() int64 { return int64(len(t.m)) }

// Bytes implements Table.
func (t *Compact) Bytes() int64 { return t.Len() * CompactEntryBytes }

// Fidelity implements Table.
func (t *Compact) Fidelity() Fidelity { return FidelityCompact }

// Omission implements Table: the birthday bound on a 64-bit
// fingerprint — P(some pair of n states collided) ≈ n²/2⁶⁵.
func (t *Compact) Omission() float64 {
	n := float64(len(t.m))
	p := n * n / math.Exp2(65)
	if p > 1 {
		return 1
	}
	return p
}

// Export implements Table: the full keys were discarded at insert.
func (t *Compact) Export() ([]Entry, error) {
	return nil, ErrNoExport{Mode: FidelityCompact}
}

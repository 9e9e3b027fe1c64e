package visited

import (
	"bytes"
	"sort"

	"mcfs/internal/abstraction"
)

// depths is the one map shape behind Exact and Compact: a key — the
// abstract state, or its fingerprint — to the shallowest depth the
// state was expanded at.
type depths[K comparable] map[K]int32

// visit applies the depth-bounded re-expansion rule: descend when the
// key is new, or when every earlier expansion was strictly deeper. The
// shallowest depth is what stays recorded.
func (m depths[K]) visit(k K, depth int) (novel, expand bool) {
	prev, seen := m[k]
	if seen && prev <= int32(depth) {
		return false, false
	}
	m[k] = int32(depth)
	return !seen, true
}

// Exact is the full-fidelity table: abstract state → depth. It is the
// only backend that can export a ResumeState and the only one the
// governor can evict from (an evicted exact entry is merely re-expanded
// if reached again — duplicate work, never lost coverage).
type Exact struct {
	m depths[abstraction.State]
}

// NewExact returns an empty exact table.
func NewExact() *Exact { return &Exact{m: depths[abstraction.State]{}} }

// Visit implements Table.
func (t *Exact) Visit(st abstraction.State, depth int) (novel, expand bool) {
	return t.m.visit(st, depth)
}

// Len implements Table.
func (t *Exact) Len() int64 { return int64(len(t.m)) }

// Bytes implements Table.
func (t *Exact) Bytes() int64 { return t.Len() * ExactEntryBytes }

// Fidelity implements Table.
func (t *Exact) Fidelity() Fidelity { return FidelityExact }

// Omission implements Table: an exact table never wrongly matches.
func (t *Exact) Omission() float64 { return 0 }

// Export implements Table: a byte-ordered snapshot of every entry.
func (t *Exact) Export() ([]Entry, error) {
	out := make([]Entry, 0, len(t.m))
	for st, depth := range t.m {
		out = append(out, Entry{State: st, Depth: int(depth)})
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].State[:], out[j].State[:]) < 0
	})
	return out, nil
}

// MaxDepth reports the deepest recorded expansion depth (-1 when
// empty).
func (t *Exact) MaxDepth() int {
	max := -1
	for _, depth := range t.m {
		if int(depth) > max {
			max = int(depth)
		}
	}
	return max
}

// EvictDeepest removes every entry recorded at the table's deepest
// depth layer, provided that layer is strictly deeper than floor:
// layers at depth <= floor are protected (evicting near-root knowledge
// would forfeit most pruning). Deep entries are the
// cheap ones to lose — the re-expansion rule would re-expand them on
// any shallower re-encounter regardless, so eviction costs duplicate
// work, never coverage. Returns how many entries went and the depth of
// the evicted layer (0, -1 when nothing qualified).
func (t *Exact) EvictDeepest(floor int) (evicted int, depth int) {
	deepest := t.MaxDepth()
	if deepest <= floor {
		return 0, -1
	}
	for st, d := range t.m {
		if int(d) == deepest {
			delete(t.m, st)
			evicted++
		}
	}
	return evicted, deepest
}

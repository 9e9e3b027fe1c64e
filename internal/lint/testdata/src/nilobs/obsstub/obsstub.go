// Fixture for the nilobs analyzer: exported pointer-receiver methods on
// the configured Hub type must guard the receiver before dereferencing.
package obsstub // want "configured nil-safe type Reporter is not declared in package obsstub"

import "sync"

// Hub mimics the observability hub: documented safe on a nil receiver.
type Hub struct {
	mu       sync.Mutex
	counters map[string]int64
}

// Guarded is the documented pattern: nil check first, then dereference.
func (h *Hub) Guarded(name string) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counters[name]
}

// OrGuard guards through the leftmost operand of an || chain.
func (h *Hub) OrGuard(name string) int64 {
	if h == nil || name == "" {
		return 0
	}
	return h.counters[name]
}

// Inverted keeps every dereference inside an != nil block.
func (h *Hub) Inverted(name string) {
	if h != nil {
		h.counters[name]++
	}
}

// Unguarded dereferences the receiver before any nil check.
func (h *Hub) Unguarded(name string) int64 {
	v := h.counters[name] // want "dereferences its receiver before a nil guard"
	return v
}

// Delegates may call sibling methods before guarding; each callee is
// verified on its own.
func (h *Hub) Delegates(name string) int64 {
	return h.Guarded(name)
}

// unexported methods are internal plumbing reached only through guarded
// entry points; they are not checked.
func (h *Hub) bump(name string) {
	h.counters[name]++
}

type sidecar struct{ n int }

// NotATarget is on a type outside the configured target list.
func (s *sidecar) NotATarget() int { return s.n }

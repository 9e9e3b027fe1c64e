package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed region of work in one layer. Spans nest through
// Parent links: a model-checking step contains kernel syscalls, which
// contain file-system requests, which contain block-device I/O — the
// cross-layer trace a bug trail is dumped with.
type Span struct {
	// ID is unique within one hub (never zero).
	ID uint64 `json:"id"`
	// Parent is the enclosing span's ID (zero for a root span).
	Parent uint64 `json:"parent,omitempty"`
	// Layer is the component that produced the span (LayerMC, ...).
	Layer string `json:"layer"`
	// Name describes the work, e.g. "op:create_file(/f0)" or "open".
	Name string `json:"name"`
	// Start and End are hub timestamps (virtual time when the hub is
	// wired to a simulation clock).
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// SpanHandle is a started span; End completes it. The zero SpanHandle
// (as returned by a nil hub) is a valid no-op.
type SpanHandle struct {
	h    *Hub
	id   uint64
	hist *Histogram // observes the span's duration at End (StartTimed)
}

// tracer keeps the open spans and the current collection window. Open
// spans form a stack: a span started while another is open becomes its
// child. The explorer drives one hub from one goroutine at a time
// (server goroutines run only while the driver blocks on them), so the
// stack discipline holds; the mutex makes concurrent readers safe. A
// span completed outside a collection window is kept nowhere.
type tracer struct {
	nextID uint64
	stack  []Span

	collecting bool
	collected  []Span
}

// StartSpan opens a span in the given layer, parented to the innermost
// open span. The zero handle is returned on a nil hub.
func (h *Hub) StartSpan(layer, name string) SpanHandle {
	return h.StartTimed(layer, name, nil)
}

// StartTimed is StartSpan for a timed region: End also observes the
// span's duration into hist. Instrumented layers open their latency
// spans with it (`defer hub.StartTimed(layer, name, hist).End()`).
func (h *Hub) StartTimed(layer, name string, hist *Histogram) SpanHandle {
	if h == nil {
		return SpanHandle{} // inlined: a nil hub costs its callers no call
	}
	return h.startTimed(layer, name, hist)
}

func (h *Hub) startTimed(layer, name string, hist *Histogram) SpanHandle {
	now := h.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	t := &h.tracer
	t.nextID++
	sp := Span{ID: t.nextID, Layer: layer, Name: name, Start: now}
	if n := len(t.stack); n > 0 {
		sp.Parent = t.stack[n-1].ID
	}
	t.stack = append(t.stack, sp)
	return SpanHandle{h: h, id: sp.ID, hist: hist}
}

// End completes the span, observing its duration when it was started
// timed and appending it to the active collection window, if any. No-op
// on the zero handle; ending out of order is tolerated (the span is
// found by ID, not stack position).
func (s SpanHandle) End() {
	if s.h != nil { // inlined: the zero handle costs no call
		s.end()
	}
}

func (s SpanHandle) end() {
	now := s.h.Now()
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	t := &s.h.tracer
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].ID != s.id {
			continue
		}
		sp := t.stack[i]
		sp.End = now
		t.stack = append(t.stack[:i], t.stack[i+1:]...)
		s.hist.Observe(sp.Duration())
		if t.collecting {
			t.collected = append(t.collected, sp)
		}
		return
	}
}

// StartCollecting opens a collection window: every span completed until
// StopCollecting is retained. The engine collects each step's spans this
// way, so a bug trail's trace survives however much exploration follows
// the step.
func (h *Hub) StartCollecting() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tracer.collecting = true
	h.tracer.collected = h.tracer.collected[:0]
}

// StopCollecting closes the collection window and returns the spans
// completed during it, in completion order (children before parents).
func (h *Hub) StopCollecting() []Span {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	t := &h.tracer
	t.collecting = false
	out := make([]Span, len(t.collected))
	copy(out, t.collected)
	t.collected = t.collected[:0]
	return out
}

// WriteTrace renders spans as an indented tree ordered by start time.
// Spans whose parent is absent from the slice are treated as roots.
func WriteTrace(w io.Writer, spans []Span) {
	present := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	for _, sp := range spans {
		if present[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(s []Span) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	}
	byStart(roots)
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		for i := 0; i < depth; i++ {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%s/%s %v (at %v)\n", sp.Layer, sp.Name, sp.Duration(), sp.Start)
		kids := children[sp.ID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

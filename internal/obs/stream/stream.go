// Package stream is MCFS's live exploration event stream: a typed,
// bounded, nil-safe event bus the engine publishes its search progress
// to — steps and backtracks, novel/duplicate state decisions, one
// verdict per crash point probed, worker lifecycle (start, heartbeat,
// panic, drain), and bugs found — plus the crash-verdict heatmap the
// verdict events aggregate into.
//
// The bus follows the observability layer's nil-safety contract
// (obs.Hub): a component holding a nil *Bus pays one
// branch per emit site and nothing else, so the uninstrumented engine
// stays at seed speed. Subscribers are lossy ring buffers — Publish
// NEVER blocks on a slow consumer; when a subscriber's ring is full the
// oldest event is overwritten and the subscriber's drop counter (and
// the bus-wide obs.stream.dropped metric, when a hub is attached)
// records the loss.
//
// Events carry virtual timestamps stamped by the publisher from its
// session's simclock, never wall time, so a single engine's stream is
// bit-deterministic: two runs of the same seeded configuration produce
// byte-identical NDJSON. Swarm streams interleave workers' events in
// scheduler order; per-worker subsequences stay deterministic.
package stream

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcfs/internal/obs"
)

// Kind enumerates the event types the engine publishes.
type Kind string

const (
	// KindStep is one explored operation: the op, its DFS depth, the
	// abstract state hash it reached, and whether that state was novel.
	KindStep Kind = "step"
	// KindBacktrack is the engine restoring the pre-op state at depth.
	KindBacktrack Kind = "backtrack"
	// KindCrashVerdict is one crash point's judgment: the window op, the
	// write index crashed after, the verdict, and the recovery phase
	// that dominated the judgment's cost.
	KindCrashVerdict Kind = "crash-verdict"
	// KindWorkerStart announces a worker beginning exploration.
	KindWorkerStart Kind = "worker-start"
	// KindWorkerHeartbeat carries a worker's cumulative counters at its
	// current virtual time (every HeartbeatEvery executed operations).
	KindWorkerHeartbeat Kind = "worker-heartbeat"
	// KindWorkerPanic reports a panic the engine isolated.
	KindWorkerPanic Kind = "worker-panic"
	// KindWorkerDrain is a worker's final event: Detail carries the
	// terminal status (done, bug, canceled, failed) and the counter
	// fields the final tallies.
	KindWorkerDrain Kind = "worker-drain"
	// KindBug reports a discrepancy; Detail carries the discrepancy kind.
	KindBug Kind = "bug"
	// KindFidelityDegraded reports the memory governor downgrading the
	// visited table's backend: Detail carries the transition and the
	// omission estimate at the moment of the switch (e.g.
	// "exact->compact p≈1.2e-09").
	KindFidelityDegraded Kind = "fidelity-degraded"
)

// Crash-point verdicts (Event.Verdict, heatmap cells). A strict plane's
// recovery must land on the pre-op (b0) or post-op (b1) state exactly;
// a non-strict plane's clean recovery is "fsck-repaired" (mountable and
// fsck-clean, whatever state it holds); anything else is a bug.
const (
	VerdictB0           = "b0"
	VerdictB1           = "b1"
	VerdictFsckRepaired = "fsck-repaired"
	VerdictBug          = "bug"
)

// HeartbeatEvery is the engine's heartbeat cadence in executed
// operations. Heartbeats ride the op counter, not a wall timer, so they
// are deterministic in virtual time.
const HeartbeatEvery = 64

// Event is one exploration event. Fields beyond Seq/At/Kind/Worker are
// populated per kind and omitted from JSON when zero, so NDJSON lines
// stay compact and byte-stable.
type Event struct {
	// Seq is the bus-assigned publication sequence number (from 1).
	Seq uint64 `json:"seq"`
	// At is the publisher's virtual timestamp.
	At time.Duration `json:"at_ns"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Worker identifies the publishing engine (0 = single engine,
	// 1..N = swarm workers).
	Worker int `json:"worker"`
	// Op is the operation (step, crash-verdict, bug).
	Op string `json:"op,omitempty"`
	// Depth is the DFS depth (step, backtrack, crash-verdict) or trail
	// length (heartbeat, bug).
	Depth int `json:"depth,omitempty"`
	// State is the abstract state hash reached by a step, in hex.
	State string `json:"state,omitempty"`
	// Novel reports whether a step reached a never-seen state.
	Novel bool `json:"novel,omitempty"`
	// Target names the crash plane a verdict belongs to.
	Target string `json:"target,omitempty"`
	// Write is the crash point's write index; Writes the window's write
	// count.
	Write  int `json:"write,omitempty"`
	Writes int `json:"writes,omitempty"`
	// Verdict is the crash point's judgment (Verdict* constants).
	Verdict string `json:"verdict,omitempty"`
	// Phase is the engine phase that dominated the verdict's recovery
	// cost (empty without a hub).
	Phase string `json:"phase,omitempty"`
	// Ops/Unique/Revisits/CrashPoints are cumulative engine counters
	// (heartbeat, drain).
	Ops         int64 `json:"ops,omitempty"`
	Unique      int64 `json:"unique,omitempty"`
	Revisits    int64 `json:"revisits,omitempty"`
	CrashPoints int64 `json:"crash_points,omitempty"`
	// Detail carries kind-specific text: the worker's seed (start), the
	// terminal status (drain), the panic value (worker-panic), or the
	// discrepancy kind (bug).
	Detail string `json:"detail,omitempty"`
}

// DefaultRingCapacity is a subscriber's ring size when Subscribe is
// called with capacity <= 0.
const DefaultRingCapacity = 1024

// DefaultStaleAfter is the heartbeat staleness bound: a running worker
// whose last event lags the swarm frontier by more than this much
// virtual time reports unhealthy.
const DefaultStaleAfter = 2 * time.Second

// Bus is the exploration event bus: engines Publish, consumers
// Subscribe. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops / zero values), matching the obs.Hub contract — the
// engine's emit sites are unguarded beyond one branch.
type Bus struct {
	seq     atomic.Uint64
	dropped atomic.Int64

	mu      sync.Mutex
	subs    []*Subscriber        // guarded by mu
	workers map[int]*workerState // guarded by mu
	dropCtr *obs.Counter         // guarded by mu; obs.stream.dropped, when a hub is attached
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{workers: make(map[int]*workerState)}
}

// SetObs surfaces the bus's drop count on hub as the
// obs.MetricStreamDropped counter: every event lost to a full
// subscriber ring increments it. No-op on a nil bus or nil hub.
func (b *Bus) SetObs(hub *obs.Hub) {
	if b == nil || hub == nil {
		return
	}
	b.mu.Lock()
	b.dropCtr = hub.Counter(obs.MetricStreamDropped)
	b.mu.Unlock()
}

// Publish delivers ev to every subscriber, assigning its sequence
// number and folding worker lifecycle events into the health table.
// Publish never blocks: a full subscriber ring drops its oldest event.
// No-op on a nil bus.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	ev.Seq = b.seq.Add(1)
	b.mu.Lock()
	b.updateWorker(ev)
	for _, s := range b.subs {
		if s.push(ev) {
			b.dropped.Add(1)
			b.dropCtr.Inc()
		}
	}
	b.mu.Unlock()
}

// Subscribe attaches a lossy ring-buffer subscriber of the given
// capacity (DefaultRingCapacity when <= 0). Nil on a nil bus.
func (b *Bus) Subscribe(capacity int) *Subscriber {
	if b == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	s := &Subscriber{
		bus:    b,
		buf:    make([]Event, capacity),
		notify: make(chan struct{}, 1),
	}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s
}

// Subscribers reports the number of attached subscribers. Zero on a
// nil bus.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Dropped reports the total events lost to full subscriber rings,
// summed across all subscribers. Zero on a nil bus.
func (b *Bus) Dropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

func (b *Bus) unsubscribe(s *Subscriber) {
	b.mu.Lock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

// Subscriber is one lossy ring-buffer consumer. Drain empties the ring;
// C wakes a select loop when new events arrive; Dropped counts events
// this subscriber lost to ring overflow. All methods are safe on a nil
// receiver.
type Subscriber struct {
	bus     *Bus
	dropped atomic.Int64
	notify  chan struct{}

	mu     sync.Mutex
	buf    []Event // guarded by mu; ring
	head   int     // guarded by mu; index of the oldest buffered event
	count  int     // guarded by mu
	closed bool    // guarded by mu
}

// push appends ev to the ring (called under the bus lock, but the ring
// has its own lock so Drain never contends with Publish's fan-out).
// Reports whether an event was dropped to make room.
func (s *Subscriber) push(ev Event) (droppedOne bool) {
	s.mu.Lock()
	closed := s.closed
	switch {
	case closed:
	case s.count == len(s.buf):
		s.buf[s.head] = ev
		s.head = (s.head + 1) % len(s.buf)
		s.dropped.Add(1)
		droppedOne = true
	default:
		s.buf[(s.head+s.count)%len(s.buf)] = ev
		s.count++
	}
	s.mu.Unlock()
	if closed {
		return false
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return droppedOne
}

// Drain removes and returns every buffered event in publication order
// (nil when the ring is empty). Safe on a nil subscriber.
func (s *Subscriber) Drain() []Event {
	if s == nil {
		return nil
	}
	var out []Event
	s.mu.Lock()
	if s.count > 0 {
		out = make([]Event, s.count)
		for i := range out {
			out[i] = s.buf[(s.head+i)%len(s.buf)]
		}
		s.head, s.count = 0, 0
	}
	s.mu.Unlock()
	return out
}

// C returns the wake channel: it receives (capacity one, coalesced)
// whenever events arrive, so a consumer can select on it between
// Drains. Nil — blocking forever in a select — on a nil subscriber.
func (s *Subscriber) C() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.notify
}

// Dropped reports how many events this subscriber lost to ring
// overflow. Zero on a nil subscriber.
func (s *Subscriber) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close detaches the subscriber from its bus; buffered events remain
// drainable. Safe on a nil subscriber; idempotent.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	bus := s.bus
	s.mu.Unlock()
	if first {
		bus.unsubscribe(s)
	}
}

// Worker statuses (WorkerStatus.Status). Health adds "healthy" /
// "unhealthy" for running workers; finished workers report their
// terminal status as their health.
const (
	WorkerRunning  = "running"
	WorkerDone     = "done"
	WorkerPanicked = "panicked"
)

// workerState is the bus's live view of one worker, folded from its
// lifecycle events at Publish time.
type workerState struct {
	status      string
	lastAt      time.Duration
	ops         int64
	unique      int64
	revisits    int64
	crashPoints int64
	depth       int
	detail      string
}

// updateWorker folds a lifecycle event into the worker table (caller
// holds b.mu). Step/backtrack/verdict events deliberately do not touch
// the table: liveness is judged on heartbeats so a stuck crash probe
// (heartbeats ride the op counter, which a hung target stops
// advancing) reads as stale.
func (b *Bus) updateWorker(ev Event) {
	switch ev.Kind {
	case KindWorkerStart, KindWorkerHeartbeat, KindWorkerPanic, KindWorkerDrain:
	default:
		return
	}
	ws := b.workers[ev.Worker]
	if ws == nil {
		ws = &workerState{status: WorkerRunning}
		b.workers[ev.Worker] = ws
	}
	ws.lastAt = ev.At
	switch ev.Kind {
	case KindWorkerStart:
		ws.status = WorkerRunning
		ws.detail = ev.Detail
	case KindWorkerHeartbeat, KindWorkerDrain:
		ws.ops = ev.Ops
		ws.unique = ev.Unique
		ws.revisits = ev.Revisits
		ws.crashPoints = ev.CrashPoints
		ws.depth = ev.Depth
		if ev.Kind == KindWorkerDrain {
			ws.status = WorkerDone
			ws.detail = ev.Detail
		}
	case KindWorkerPanic:
		ws.status = WorkerPanicked
		ws.detail = ev.Detail
	}
}

// WorkerStatus is one worker's row in the health view.
type WorkerStatus struct {
	// Worker is the worker id (0 = single engine, 1..N = swarm).
	Worker int `json:"worker"`
	// Status is the lifecycle state (running, done, panicked).
	Status string `json:"status"`
	// Health is "healthy" or "unhealthy" for running workers (stale
	// heartbeat relative to the frontier), else the terminal status.
	Health string `json:"health"`
	// LastBeat is the virtual timestamp of the worker's last lifecycle
	// event.
	LastBeat time.Duration `json:"last_beat_ns"`
	// Ops/Unique/Revisits/CrashPoints/Depth are the worker's last
	// reported cumulative tallies.
	Ops         int64  `json:"ops"`
	Unique      int64  `json:"unique"`
	Revisits    int64  `json:"revisits"`
	CrashPoints int64  `json:"crash_points,omitempty"`
	Depth       int    `json:"depth"`
	Detail      string `json:"detail,omitempty"`
}

// Health is the swarm health view: every known worker plus the
// frontier the staleness rule is judged against.
type Health struct {
	// Frontier is the maximum LastBeat across workers — the swarm's
	// leading virtual timestamp. Workers run independent virtual
	// clocks, so staleness is frontier-relative, not wall-clock.
	Frontier time.Duration `json:"frontier_ns"`
	// StaleAfter is the bound: running workers lagging the frontier by
	// more than this report unhealthy.
	StaleAfter time.Duration `json:"stale_after_ns"`
	// Workers lists every worker in id order.
	Workers []WorkerStatus `json:"workers"`
}

// Workers snapshots the worker health table. A running worker is
// unhealthy when its last heartbeat lags the frontier (the most recent
// heartbeat any worker published, in virtual time) by more than
// DefaultStaleAfter; finished workers report their terminal status.
// Zero value on a nil bus.
func (b *Bus) Workers() Health {
	if b == nil {
		return Health{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	h := Health{StaleAfter: DefaultStaleAfter}
	for id, ws := range b.workers {
		h.Workers = append(h.Workers, WorkerStatus{
			Worker:      id,
			Status:      ws.status,
			LastBeat:    ws.lastAt,
			Ops:         ws.ops,
			Unique:      ws.unique,
			Revisits:    ws.revisits,
			CrashPoints: ws.crashPoints,
			Depth:       ws.depth,
			Detail:      ws.detail,
		})
		if ws.lastAt > h.Frontier {
			h.Frontier = ws.lastAt
		}
	}
	sort.Slice(h.Workers, func(i, j int) bool { return h.Workers[i].Worker < h.Workers[j].Worker })
	for i := range h.Workers {
		w := &h.Workers[i]
		switch {
		case w.Status != WorkerRunning:
			w.Health = w.Status
		case h.Frontier-w.LastBeat > DefaultStaleAfter:
			w.Health = "unhealthy"
		default:
			w.Health = "healthy"
		}
	}
	return h
}

// Package obs is MCFS's stdlib-only observability layer: an atomic
// metrics registry (counters, gauges, bounded-bucket latency
// histograms), the engine's phase profile and state-space telemetry, a
// lightweight cross-layer span tracer, a Spin-style periodic progress
// reporter, and an optional HTTP endpoint serving a JSON metrics
// snapshot plus net/http/pprof.
//
// The paper's §7 future work asks for coverage tracking and for
// long-running swarm verification that can be interrupted and resumed;
// neither is usable without visibility into what a multi-hour
// exploration is doing. This package provides that visibility without
// perturbing the system under observation: every entry point is
// nil-safe, so a component holding a nil *Hub (or a nil instrument
// resolved from one) pays a single branch on the hot path and nothing
// else. Time is the session's virtual clock, which MCFS wires in with
// SetNow — spans, latency histograms and phase times therefore report
// deterministic virtual durations, not wall time. A hub no clock was
// wired into reads zero.
//
// The central type is the Hub: one per exploration engine (swarm
// workers each get their own hub; Merge and Profile.Merge aggregate
// their snapshots).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Standard instrument names. Components instrumented by this repo
// register under these names so dashboards and tests can find them.
const (
	// MetricOps counts operations executed by the engine.
	MetricOps = "mc.ops"
	// MetricVisitedMisses counts visited-table misses (unique states).
	MetricVisitedMisses = "mc.visited.misses"
	// MetricVisitedHits counts visited-table hits (revisit prunes).
	MetricVisitedHits = "mc.visited.hits"
	// MetricDepth is the engine's current DFS depth (gauge).
	MetricDepth = "mc.depth"
	// MetricSyscalls counts kernel syscall entries.
	MetricSyscalls = "kernel.syscalls"
	// MetricRemount is the kernel's remount latency histogram.
	MetricRemount = "kernel.remount"
	// MetricCompare is the checker's comparison+hash latency histogram.
	MetricCompare = "checker.compare"
	// MetricFuseRequests counts FUSE requests sent by the client.
	MetricFuseRequests = "fuse.requests"
	// MetricJournalRecords counts flight-recorder records appended.
	MetricJournalRecords = "journal.records"
	// MetricJournalBytes counts flight-recorder bytes appended.
	MetricJournalBytes = "journal.bytes"
	// MetricJournalFlushes counts flight-recorder batch flushes.
	MetricJournalFlushes = "journal.flushes"
	// MetricStallWarnings counts progress-reporter stall warnings (no
	// globally-novel state within the configured operation window).
	MetricStallWarnings = "mc.stall.warnings"
	// MetricPanics counts target panics the engine isolated.
	MetricPanics = "mc.panics"
	// MetricCrashPoints counts crash points explored.
	MetricCrashPoints = "mc.crash.points"
	// MetricCrashRecoveries counts crash recoveries that verified clean.
	MetricCrashRecoveries = "mc.crash.recoveries"
	// MetricStreamDropped counts exploration-stream events lost to full
	// subscriber rings (the bus never blocks the engine; slow consumers
	// drop instead).
	MetricStreamDropped = "obs.stream.dropped"
	// MetricVisitedFidelity is the visited table's current fidelity
	// level (gauge: 0 exact, 1 compact, 2 bitstate) — nonzero once a
	// memory governor degraded the table.
	MetricVisitedFidelity = "mc.visited.fidelity"
	// MetricVisitedOmissionPPM is the estimated state-omission
	// probability at the current fidelity, in parts per million
	// (gauge; gauges are integers).
	MetricVisitedOmissionPPM = "mc.visited.omission_ppm"
	// MetricVisitedEvictions counts visited-table entries evicted under
	// soft memory pressure.
	MetricVisitedEvictions = "mc.visited.evictions"
	// MetricFidelityDowngrades counts visited-table backend migrations
	// (exact→compact→bitstate) the governor performed.
	MetricFidelityDowngrades = "mc.visited.downgrades"
)

// Span layers used by the instrumented components, outermost first:
// an engine step contains kernel syscalls, which contain file-system
// (FUSE) requests, which contain block-device I/O.
const (
	LayerMC       = "mc"
	LayerTracker  = "tracker"
	LayerChecker  = "checker"
	LayerKernel   = "kernel"
	LayerFS       = "fs"
	LayerBlockdev = "blockdev"
)

// Hub is one observability domain: a metrics registry, the engine's
// phase profile and telemetry, and a span tracer sharing one time base.
// All methods are safe for concurrent use and safe on a nil receiver
// (returning nil instruments / zero values), so components can hold an
// optional *Hub without guarding call sites.
type Hub struct {
	now atomic.Pointer[func() time.Duration]

	// phases is built complete at New and never mutated, so phase
	// lookups need no lock; the histograms themselves are atomic. It
	// stays out of Snapshot: Profile reports it.
	phases map[string]*Histogram

	mu         sync.Mutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
	every      int64                 // guarded by mu
	nextAt     int64                 // guarded by mu
	samples    []Sample              // guarded by mu

	tracer tracer
}

// New returns an empty hub. It reads zero until SetNow wires a clock.
func New() *Hub {
	h := &Hub{
		phases:     make(map[string]*Histogram, len(Phases())),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		every:      DefaultSampleEvery,
		nextAt:     1,
	}
	for _, ph := range Phases() {
		h.phases[ph] = newHistogram()
	}
	return h
}

// SetNow sets the hub's time base; MCFS wires the session's virtual
// clock here when it builds the session the hub observes.
func (h *Hub) SetNow(now func() time.Duration) {
	if h == nil || now == nil {
		return
	}
	h.now.Store(&now)
}

// Now returns the hub's current time (virtual when wired to a
// simulation clock). Zero on a nil hub and before SetNow.
func (h *Hub) Now() time.Duration {
	if h == nil {
		return 0
	}
	if now := h.now.Load(); now != nil {
		return (*now)()
	}
	return 0
}

// Counter returns the named counter, creating it on first use. Nil on a
// nil hub; a nil *Counter is a valid no-op instrument.
func (h *Hub) Counter(name string) *Counter {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.counters[name]
	if !ok {
		c = &Counter{}
		h.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (h *Hub) Gauge(name string) *Gauge {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.gauges[name]
	if !ok {
		g = &Gauge{}
		h.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (h *Hub) Histogram(name string) *Histogram {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	hist, ok := h.histograms[name]
	if !ok {
		hist = newHistogram()
		h.histograms[name] = hist
	}
	return hist
}

// Snapshot captures every instrument's current value; the phase profile
// is Profile's. The result is deterministic for a given set of
// instrument values (maps serialize sorted), so snapshots can be diffed
// and asserted on. Zero value on a nil hub.
func (h *Hub) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if h == nil {
		return snap
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, c := range h.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range h.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, hist := range h.histograms {
		snap.Histograms[name] = hist.Snapshot()
	}
	return snap
}

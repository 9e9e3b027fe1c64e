// Package perf is MCFS's performance observatory: a nil-safe phase
// profiler that attributes exploration wall-clock (virtual, simclock-
// driven) to the engine's named phases, plus a state-space telemetry
// sampler recording how the search itself evolves — novelty-rate decay,
// frontier depth, duplicate rate, crash points per second.
//
// The paper's headline claim is model-checking *speed* (Figure 2), and
// pFSCK's order-of-magnitude fsck wins started with attributing time to
// phases before parallelizing them. This package is that attribution
// step for the explore loop: before the checkpoint/fsck/hash hot paths
// can be optimized, each must be measurable in isolation, per run and
// per swarm worker, in deterministic virtual time.
//
// Like obs.Hub, every entry point is nil-safe: a component holding a
// nil *Profiler pays one branch per phase boundary and nothing else, so
// the uninstrumented engine stays at seed speed. Time comes from a
// pluggable now function wired to the session's virtual clock — never
// the wall clock — so phase attributions are deterministic and
// comparable across machines.
package perf

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mcfs/internal/obs"
)

// Engine phase names. The engine's probe marks each phase boundary of
// an explored operation and Records the interval that just ended; the
// profiler accumulates a latency histogram per phase.
const (
	// PhaseCheckpoint is tracker state capture before an operation.
	PhaseCheckpoint = "checkpoint"
	// PhaseExecute is running the operation on every target (including
	// crash-probe re-executions).
	PhaseExecute = "execute"
	// PhaseVerify is the checker's result comparison and state check —
	// the one post-operation abstraction walk, which also yields the
	// visited-table key.
	PhaseVerify = "verify"
	// PhaseRestore is tracker state restore on backtrack (and crash-
	// probe rollback).
	PhaseRestore = "restore"
	// PhaseHash is the crash oracle's metadata hashes only; a run without
	// crash exploration records none.
	PhaseHash = "hash"
	// PhaseFsck is post-recovery file-system checking in the crash
	// oracle.
	PhaseFsck = "fsck"
	// PhaseRemount is per-operation remount bracketing and crash
	// power-cycle recovery mounts.
	PhaseRemount = "remount"
	// PhaseJournal is flight-recorder record encoding and appends.
	PhaseJournal = "journal"
	// PhaseOracle is the crash oracle's session-reuse bookkeeping: delta
	// region digests and memoized-verdict lookups that replace full fsck
	// and hash passes on already-judged recovered states.
	PhaseOracle = "oracle"
)

// Phases lists every engine phase in presentation order.
func Phases() []string {
	return []string{
		PhaseCheckpoint, PhaseExecute, PhaseVerify, PhaseRestore,
		PhaseHash, PhaseFsck, PhaseRemount, PhaseJournal, PhaseOracle,
	}
}

// DefaultSampleEvery is the telemetry sampling stride: one state-space
// sample per this many executed operations.
const DefaultSampleEvery = 64

// maxSamples bounds the telemetry series; when full, the series is
// decimated (every other sample dropped) and the stride doubled, so a
// run of any length keeps a bounded, evenly spaced trajectory.
const maxSamples = 512

// Profiler attributes engine time to named phases and samples
// state-space telemetry every N executed operations. All methods are
// safe for concurrent use (a live /metrics handler snapshots while the
// engine runs) and safe on a nil receiver, so the engine's call sites
// are unguarded — a nil profiler costs one branch per phase boundary.
type Profiler struct {
	now atomic.Pointer[func() time.Duration]

	// phases is built complete at New and never mutated, so phase
	// lookups are lock-free; the histograms themselves are atomic.
	phases map[string]*obs.Histogram

	mu      sync.Mutex
	every   int64
	nextAt  int64
	samples []Sample
}

// New returns a profiler that reads time from now (MCFS wires
// the session's virtual clock). A nil now pins the clock at zero:
// phase counts and telemetry ops still accumulate, durations do not.
// Wall time is deliberately not a fallback — perf attributions feed
// committed benchmark trajectories and must be deterministic.
func New(now func() time.Duration) *Profiler {
	p := &Profiler{
		phases: make(map[string]*obs.Histogram, len(Phases())),
		every:  DefaultSampleEvery,
		nextAt: 1,
	}
	for _, ph := range Phases() {
		p.phases[ph] = obs.NewHistogram()
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	p.now.Store(&now)
	return p
}

// SetNow replaces the profiler's time base; MCFS calls it when
// attaching a profiler to a session whose virtual clock did not exist
// yet at New time. No-op on a nil profiler or nil now.
func (p *Profiler) SetNow(now func() time.Duration) {
	if p == nil || now == nil {
		return
	}
	p.now.Store(&now)
}

// Now returns the profiler's current (virtual) time. Zero on a nil
// profiler.
func (p *Profiler) Now() time.Duration {
	if p == nil {
		return 0
	}
	return (*p.now.Load())()
}

// SetSampleEvery sets the telemetry sampling stride (<= 0 restores
// DefaultSampleEvery). No-op on a nil profiler.
func (p *Profiler) SetSampleEvery(n int64) {
	if p == nil {
		return
	}
	if n <= 0 {
		n = DefaultSampleEvery
	}
	p.mu.Lock()
	p.every = n
	p.mu.Unlock()
}

// Record adds one sample of d to phase. The caller marks time itself
// (Now) and says which phase an interval belonged to once it is over —
// the engine's event probe does. No-op on a nil profiler or an
// unknown phase.
func (p *Profiler) Record(phase string, d time.Duration) {
	if p == nil {
		return
	}
	if h := p.phases[phase]; h != nil {
		h.Observe(d)
	}
}

// PhaseTotals returns each phase's cumulative attributed time in
// Phases() order — a cheap (one atomic load per phase, no allocation
// beyond the slice) poll for per-crash-point phase attribution. Nil on
// a nil profiler.
func (p *Profiler) PhaseTotals() []time.Duration {
	if p == nil {
		return nil
	}
	names := Phases()
	out := make([]time.Duration, len(names))
	for i, name := range names {
		out[i] = p.phases[name].Sum()
	}
	return out
}

// DominantDelta names the phase that accumulated the most time between
// two PhaseTotals polls ("" when nothing advanced, or when either poll
// is missing — e.g. from a nil profiler). Ties break toward the
// earlier canonical phase, keeping the attribution deterministic.
func DominantDelta(before, after []time.Duration) string {
	names := Phases()
	if len(before) != len(names) || len(after) != len(names) {
		return ""
	}
	best, bestDelta := "", time.Duration(0)
	for i, name := range names {
		if d := after[i] - before[i]; d > bestDelta {
			best, bestDelta = name, d
		}
	}
	return best
}

// Sample is one state-space telemetry point: the engine's cumulative
// counters at a sampled operation count, stamped with virtual time.
// Rates (novelty decay, duplicate rate, crash points/sec) are derived
// between consecutive samples by Snapshot.SampleRates.
type Sample struct {
	// At is the virtual timestamp of the sample.
	At time.Duration `json:"at_ns"`
	// Ops is the cumulative executed-operation count.
	Ops int64 `json:"ops"`
	// Unique is the cumulative unique-state count (visited-table
	// misses) — its per-op derivative is the novelty rate.
	Unique int64 `json:"unique"`
	// Revisits is the cumulative revisit count (visited-table hits) —
	// its per-op derivative is the duplicate rate.
	Revisits int64 `json:"revisits"`
	// CrashPoints is the cumulative crash-point count (zero outside
	// crash exploration).
	CrashPoints int64 `json:"crash_points,omitempty"`
	// Depth is the DFS frontier depth at sample time.
	Depth int `json:"depth"`
}

// Observe feeds the engine's cumulative counters after one executed
// operation; the profiler records a telemetry sample every stride ops
// (adaptively decimating when the series fills). No-op on a nil
// profiler beyond the receiver branch.
func (p *Profiler) Observe(ops, unique, revisits, crashPoints int64, depth int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ops < p.nextAt {
		return
	}
	if len(p.samples) >= maxSamples {
		kept := p.samples[:0]
		for i := 0; i < len(p.samples); i += 2 {
			kept = append(kept, p.samples[i])
		}
		p.samples = kept
		p.every *= 2
	}
	p.samples = append(p.samples, Sample{
		At:          p.Now(),
		Ops:         ops,
		Unique:      unique,
		Revisits:    revisits,
		CrashPoints: crashPoints,
		Depth:       depth,
	})
	p.nextAt = ops + p.every
}

// Snapshot is a point-in-time copy of a profiler: one latency
// histogram per phase that recorded work, plus the telemetry series.
// encoding/json serializes the phase map with sorted keys, so
// marshaling a snapshot is deterministic.
type Snapshot struct {
	// Phases maps phase name to its latency histogram (only phases
	// with at least one sample appear).
	Phases map[string]obs.HistogramSnapshot `json:"phases"`
	// SampleEvery is the (possibly decimation-doubled) sampling stride.
	SampleEvery int64 `json:"sample_every,omitempty"`
	// Samples is the telemetry series in operation order. Empty on a
	// merged swarm snapshot: per-worker series live on independent
	// virtual clocks and operation counters, so only the phase
	// histograms merge meaningfully.
	Samples []Sample `json:"samples,omitempty"`
}

// Snapshot captures the profiler's current state. Zero value on a nil
// profiler.
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	snap := Snapshot{Phases: map[string]obs.HistogramSnapshot{}}
	for name, h := range p.phases {
		if hs := h.Snapshot(); hs.Count > 0 {
			snap.Phases[name] = hs
		}
	}
	p.mu.Lock()
	snap.SampleEvery = p.every
	snap.Samples = append([]Sample(nil), p.samples...)
	p.mu.Unlock()
	return snap
}

// Enabled reports whether the snapshot recorded any phase work.
func (s Snapshot) Enabled() bool { return len(s.Phases) > 0 }

// Total returns the summed attributed time across all phases.
func (s Snapshot) Total() time.Duration {
	var total time.Duration
	for _, h := range s.Phases {
		total += h.Sum
	}
	return total
}

// Share returns the named phase's fraction of the total attributed
// time (zero when nothing was attributed).
func (s Snapshot) Share(phase string) float64 {
	total := s.Total()
	if total <= 0 {
		return 0
	}
	return float64(s.Phases[phase].Sum) / float64(total)
}

// Shares returns every recorded phase's fraction of the attributed
// total, keyed by phase name.
func (s Snapshot) Shares() map[string]float64 {
	out := make(map[string]float64, len(s.Phases))
	total := s.Total()
	if total <= 0 {
		return out
	}
	for name, h := range s.Phases {
		out[name] = float64(h.Sum) / float64(total)
	}
	return out
}

// Merge combines two snapshots (swarm workers) phase-wise. The
// telemetry series is dropped: workers sample on independent virtual
// clocks and operation counters, so concatenation would interleave
// incomparable trajectories.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{Phases: map[string]obs.HistogramSnapshot{}}
	for name, h := range s.Phases {
		out.Phases[name] = h
	}
	for name, h := range other.Phases {
		out.Phases[name] = out.Phases[name].Merge(h)
	}
	return out
}

// SampleRate is the derived telemetry between two consecutive samples.
type SampleRate struct {
	// At is the closing sample's virtual timestamp.
	At time.Duration
	// Ops is the closing sample's cumulative operation count.
	Ops int64
	// NoveltyRate is new unique states per executed op in the window —
	// its decay toward zero is the signature of a saturating search.
	NoveltyRate float64
	// DuplicateRate is revisits per executed op in the window.
	DuplicateRate float64
	// CrashPointsPerSec is crash points tested per virtual second in
	// the window (zero outside crash exploration).
	CrashPointsPerSec float64
	// Depth is the frontier depth at the closing sample.
	Depth int
}

// SampleRates derives the per-window rates from the telemetry series
// (the first sample is the baseline; n samples yield n-1 windows).
func (s Snapshot) SampleRates() []SampleRate {
	if len(s.Samples) < 2 {
		return nil
	}
	out := make([]SampleRate, 0, len(s.Samples)-1)
	for i := 1; i < len(s.Samples); i++ {
		prev, cur := s.Samples[i-1], s.Samples[i]
		r := SampleRate{At: cur.At, Ops: cur.Ops, Depth: cur.Depth}
		if dOps := cur.Ops - prev.Ops; dOps > 0 {
			r.NoveltyRate = float64(cur.Unique-prev.Unique) / float64(dOps)
			r.DuplicateRate = float64(cur.Revisits-prev.Revisits) / float64(dOps)
		}
		if dt := (cur.At - prev.At).Seconds(); dt > 0 {
			r.CrashPointsPerSec = float64(cur.CrashPoints-prev.CrashPoints) / dt
		}
		out = append(out, r)
	}
	return out
}

// WriteTable renders the phase breakdown as a human table — one row
// per recorded phase in canonical order, with count, total, share of
// attributed time, mean, and interpolated p50/p99 — followed by a
// one-line telemetry summary (novelty decay, duplicate rate, frontier
// depth, crash rate) when the snapshot carries samples.
func (s Snapshot) WriteTable(w io.Writer) {
	if !s.Enabled() {
		fmt.Fprintln(w, "phase profile: no phase work recorded")
		return
	}
	total := s.Total()
	fmt.Fprintf(w, "%-12s %10s %12s %7s %10s %10s %10s\n",
		"phase", "count", "total", "share", "mean", "p50", "p99")
	for _, name := range Phases() {
		h, ok := s.Phases[name]
		if !ok {
			continue
		}
		share := 0.0
		if total > 0 {
			share = float64(h.Sum) / float64(total) * 100
		}
		fmt.Fprintf(w, "%-12s %10d %12v %6.1f%% %10v %10v %10v\n",
			name, h.Count, h.Sum, share, h.Mean(),
			h.Quantile(0.5), h.Quantile(0.99))
	}
	fmt.Fprintf(w, "attributed: %v across %d phases\n", total, len(s.Phases))
	rates := s.SampleRates()
	if len(rates) == 0 {
		return
	}
	first, last := rates[0], rates[len(rates)-1]
	fmt.Fprintf(w, "telemetry: novelty %.3f -> %.3f/op, duplicates %.3f -> %.3f/op, frontier depth %d",
		first.NoveltyRate, last.NoveltyRate, first.DuplicateRate, last.DuplicateRate, last.Depth)
	if last.CrashPointsPerSec > 0 || first.CrashPointsPerSec > 0 {
		fmt.Fprintf(w, ", crash points %.1f/s", last.CrashPointsPerSec)
	}
	fmt.Fprintln(w)
}

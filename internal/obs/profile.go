package obs

import (
	"fmt"
	"io"
	"time"
)

// The phase profile attributes exploration time (virtual, simclock-
// driven) to the engine's named phases, and the telemetry sampler
// records how the search itself evolves — novelty-rate decay, frontier
// depth, duplicate rate, crash points per second.
//
// The paper's headline claim is model-checking *speed* (Figure 2), and
// pFSCK's order-of-magnitude fsck wins started with attributing time to
// phases before parallelizing them. The profile is that attribution step
// for the explore loop: each hot path is measurable in isolation, per
// run and per swarm worker, in deterministic virtual time.

// Engine phase names. The engine's probe marks each phase boundary of
// an explored operation and Records the interval that just ended; the
// hub accumulates a latency histogram per phase.
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

// Record adds one sample of d to phase. The caller marks time itself
// (Now) and says which phase an interval belonged to once it is over —
// the engine's event probe does. No-op on a nil hub or an unknown
// phase.
func (h *Hub) Record(phase string, d time.Duration) {
	if h == nil {
		return
	}
	if hist := h.phases[phase]; hist != nil {
		hist.Observe(d)
	}
}

// PhaseTotals returns each phase's cumulative attributed time in
// Phases() order — a cheap (one atomic load per phase, no allocation
// beyond the slice) poll for per-crash-point phase attribution. Nil on
// a nil hub.
func (h *Hub) PhaseTotals() []time.Duration {
	if h == nil {
		return nil
	}
	names := Phases()
	out := make([]time.Duration, len(names))
	for i, name := range names {
		out[i] = h.phases[name].Sum()
	}
	return out
}

// DominantDelta names the phase that accumulated the most time between
// two PhaseTotals polls ("" when nothing advanced, or when either poll
// is missing — e.g. from a nil hub). Ties break toward the earlier
// canonical phase, keeping the attribution deterministic.
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
// between consecutive samples by Profile.SampleRates.
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
// operation; the hub records a telemetry sample every stride ops
// (adaptively decimating when the series fills). No-op on a nil hub
// beyond the receiver branch.
func (h *Hub) Observe(ops, unique, revisits, crashPoints int64, depth int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if ops < h.nextAt {
		return
	}
	if len(h.samples) >= maxSamples {
		kept := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			kept = append(kept, h.samples[i])
		}
		h.samples = kept
		h.every *= 2
	}
	h.samples = append(h.samples, Sample{
		At:          h.Now(),
		Ops:         ops,
		Unique:      unique,
		Revisits:    revisits,
		CrashPoints: crashPoints,
		Depth:       depth,
	})
	h.nextAt = ops + h.every
}

// Profile is a point-in-time copy of a hub's phase profile: one latency
// histogram per phase that recorded work, plus the telemetry series.
// encoding/json serializes the phase map with sorted keys, so
// marshaling a profile is deterministic.
type Profile struct {
	// Phases maps phase name to its latency histogram (only phases
	// with at least one sample appear).
	Phases map[string]HistogramSnapshot `json:"phases"`
	// SampleEvery is the (possibly decimation-doubled) sampling stride.
	SampleEvery int64 `json:"sample_every,omitempty"`
	// Samples is the telemetry series in operation order. Empty on a
	// merged swarm profile: per-worker series live on independent
	// virtual clocks and operation counters, so only the phase
	// histograms merge meaningfully.
	Samples []Sample `json:"samples,omitempty"`
}

// Profile captures the hub's phase profile. Zero value on a nil hub.
func (h *Hub) Profile() Profile {
	if h == nil {
		return Profile{}
	}
	p := Profile{Phases: map[string]HistogramSnapshot{}}
	for name, hist := range h.phases {
		if hs := hist.Snapshot(); hs.Count > 0 {
			p.Phases[name] = hs
		}
	}
	h.mu.Lock()
	p.SampleEvery = h.every
	p.Samples = append([]Sample(nil), h.samples...)
	h.mu.Unlock()
	return p
}

// Enabled reports whether the profile recorded any phase work.
func (p Profile) Enabled() bool { return len(p.Phases) > 0 }

// Total returns the summed attributed time across all phases.
func (p Profile) Total() time.Duration {
	var total time.Duration
	for _, h := range p.Phases {
		total += h.Sum
	}
	return total
}

// Share returns the named phase's fraction of the total attributed
// time (zero when nothing was attributed).
func (p Profile) Share(phase string) float64 {
	total := p.Total()
	if total <= 0 {
		return 0
	}
	return float64(p.Phases[phase].Sum) / float64(total)
}

// Shares returns every recorded phase's fraction of the attributed
// total, keyed by phase name.
func (p Profile) Shares() map[string]float64 {
	out := make(map[string]float64, len(p.Phases))
	total := p.Total()
	if total <= 0 {
		return out
	}
	for name, h := range p.Phases {
		out[name] = float64(h.Sum) / float64(total)
	}
	return out
}

// CrashPointsPerSec is the run's overall crash-point rate: the last
// telemetry sample's cumulative crash points over its virtual timestamp
// (zero without a sample, and outside crash exploration).
func (p Profile) CrashPointsPerSec() float64 {
	if n := len(p.Samples); n > 0 {
		if last := p.Samples[n-1]; last.At > 0 {
			return float64(last.CrashPoints) / last.At.Seconds()
		}
	}
	return 0
}

// Merge combines two profiles (swarm workers) phase-wise. The telemetry
// series is dropped: workers sample on independent virtual clocks and
// operation counters, so concatenation would interleave incomparable
// trajectories.
func (p Profile) Merge(other Profile) Profile {
	out := Profile{Phases: map[string]HistogramSnapshot{}}
	for name, h := range p.Phases {
		out.Phases[name] = h
	}
	for name, h := range other.Phases {
		out.Phases[name] = out.Phases[name].merge(h)
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
func (p Profile) SampleRates() []SampleRate {
	if len(p.Samples) < 2 {
		return nil
	}
	out := make([]SampleRate, 0, len(p.Samples)-1)
	for i := 1; i < len(p.Samples); i++ {
		prev, cur := p.Samples[i-1], p.Samples[i]
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
// depth, crash rate) when the profile carries samples.
func (p Profile) WriteTable(w io.Writer) {
	if !p.Enabled() {
		fmt.Fprintln(w, "phase profile: no phase work recorded")
		return
	}
	total := p.Total()
	fmt.Fprintf(w, "%-12s %10s %12s %7s %10s %10s %10s\n",
		"phase", "count", "total", "share", "mean", "p50", "p99")
	for _, name := range Phases() {
		h, ok := p.Phases[name]
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
	fmt.Fprintf(w, "attributed: %v across %d phases\n", total, len(p.Phases))
	rates := p.SampleRates()
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

// The engine's one event seam. The explore loop (mc.go, crash.go)
// reports what it just did through a small fixed set of typed calls on
// a *probe; the three instrumentation planes — the obs hub (phase
// times, telemetry, counters and trail spans), stream events, journal
// records — are the probe's internals (DESIGN.md lists which call feeds
// which plane). A nil probe (no plane attached) costs one branch per
// call, so the uninstrumented engine stays at seed speed.
//
// Phase time is attributed by marking: every phase call charges the
// virtual time since the previous mark to its phase and re-marks, so
// the loop says what finished, never what is about to start. begin and
// idle re-mark without charging — idle is for virtual time that
// belongs to no phase (memory-model swap and rehash charges).
package mc

import (
	"encoding/hex"
	"fmt"
	"time"

	"mcfs/internal/abstraction"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
	"mcfs/internal/workload"
)

type probe struct {
	hub                          *obs.Hub
	mark                         time.Duration // the hub's clock at the last phase boundary
	ops, hits, misses, panics    *obs.Counter
	crashPoints, crashRecoveries *obs.Counter
	depth                        *obs.Gauge
	span                         obs.SpanHandle
	// lastStep is the span collection of the most recent operation;
	// trailTraces mirrors the engine's trail with each trail op's
	// collection, so a bug report carries its full cross-layer trace
	// (the hub keeps no span outside a collection window).
	lastStep    []obs.Span
	trailTraces [][]obs.Span

	bus    *stream.Bus
	worker int
	now    func() time.Duration // session virtual clock: keeps the stream bit-deterministic
	// pointPhases is the hub's phase totals when the current crash
	// point's judgment began; the verdict event names the phase that
	// grew most since.
	pointPhases []time.Duration

	jr *journal.Recorder
	// errnos is the engine's per-target errno names of the most recent
	// step — its buffer, not a copy. Sharing is safe: journal records
	// marshal synchronously inside Append, before the next step can
	// overwrite the slice.
	errnos []string
}

// newProbe resolves cfg's instrumentation planes once, so the hot path
// pays no map lookups. Nil when every plane is off.
func newProbe(cfg *Config) *probe {
	if cfg.Obs == nil && cfg.Stream == nil && cfg.Journal == nil {
		return nil
	}
	now := func() time.Duration { return 0 } // a panicked worker may have no kernel left
	if cfg.Kernel != nil {
		now = cfg.Kernel.Clock().Now
	}
	return &probe{
		hub:             cfg.Obs,
		ops:             cfg.Obs.Counter(obs.MetricOps),
		hits:            cfg.Obs.Counter(obs.MetricVisitedHits),
		misses:          cfg.Obs.Counter(obs.MetricVisitedMisses),
		panics:          cfg.Obs.Counter(obs.MetricPanics),
		crashPoints:     cfg.Obs.Counter(obs.MetricCrashPoints),
		crashRecoveries: cfg.Obs.Counter(obs.MetricCrashRecoveries),
		depth:           cfg.Obs.Gauge(obs.MetricDepth),
		bus:             cfg.Stream,
		worker:          cfg.StreamWorker,
		now:             now,
		jr:              cfg.Journal,
	}
}

// statusEvent renders the engine's cumulative counters — what
// heartbeats and the final drain report.
func statusEvent(kind stream.Kind, res *Result, depth int, detail string) stream.Event {
	return stream.Event{Kind: kind, Ops: res.Ops, Unique: res.UniqueStates, Revisits: res.Revisits,
		CrashPoints: res.Crash.PointsExplored, Depth: depth, Detail: detail}
}

// emit publishes one event stamped with the engine's identity and
// virtual time.
func (p *probe) emit(ev stream.Event) {
	if p == nil || p.bus == nil {
		return
	}
	ev.At, ev.Worker = p.now(), p.worker
	p.bus.Publish(ev)
}

// lap charges the virtual time since the previous mark to phase ("" =
// to none) and re-marks.
func (p *probe) lap(phase string) {
	if p == nil || p.hub == nil {
		return
	}
	now := p.hub.Now()
	if phase != "" {
		p.hub.Record(phase, now-p.mark)
	}
	p.mark = now
}

func (p *probe) idle()         { p.lap("") }
func (p *probe) checkpointed() { p.lap(obs.PhaseCheckpoint) }
func (p *probe) ran()          { p.lap(obs.PhaseExecute) }
func (p *probe) remounted()    { p.lap(obs.PhaseRemount) }
func (p *probe) judged()       { p.lap(obs.PhaseVerify) }
func (p *probe) hashed()       { p.lap(obs.PhaseHash) }
func (p *probe) restored()     { p.lap(obs.PhaseRestore) }
func (p *probe) fscked()       { p.lap(obs.PhaseFsck) }
func (p *probe) digested()     { p.lap(obs.PhaseOracle) }

// runBegin announces the engine on the stream.
func (p *probe) runBegin(seed int64) {
	p.emit(stream.Event{Kind: stream.KindWorkerStart, Detail: fmt.Sprintf("seed=%d", seed)})
}

// root records the initial state: the journal's meta record pins the
// run configuration and the hash every replay must start from.
func (p *probe) root(cfg *Config, h abstraction.State, novel bool) {
	if p == nil {
		return
	}
	if novel {
		p.misses.Inc()
	}
	if p.jr == nil {
		return
	}
	names := make([]string, 0, len(cfg.Checker.Targets()))
	for _, t := range cfg.Checker.Targets() {
		names = append(names, t.Name)
	}
	p.jr.Meta(journal.Meta{
		Version:   journal.Version,
		Seed:      cfg.Seed,
		MaxDepth:  cfg.MaxDepth,
		MaxOps:    cfg.MaxOps,
		MaxStates: cfg.MaxStates,
		Targets:   names,
		Equalize:  cfg.EqualizeFreeSpace,
		Majority:  cfg.MajorityVote,
		InitState: hex.EncodeToString(h[:]),
	})
}

// begin opens one explored operation: the LayerMC span covers the
// checkpoints, any crash probe, and the step, so a trail operation's
// trace shows its tracker and kernel work as children.
func (p *probe) begin(op workload.Op, depth int) {
	p.idle()
	if p == nil || p.hub == nil {
		return
	}
	p.depth.Set(int64(depth))
	p.hub.StartCollecting()
	p.span = p.hub.StartSpan(obs.LayerMC, "op:"+op.String())
}

// end closes the operation span and stows its collected spans.
func (p *probe) end() {
	if p == nil || p.hub == nil {
		return
	}
	p.span.End()
	p.lastStep = p.hub.StopCollecting()
}

// executed counts one executed operation (a step, or a crash probe's
// window). Heartbeats ride the op counter, not a wall timer: they
// stay deterministic in virtual time, and a hung target reads as stale
// because a stuck probe stops the counter.
func (p *probe) executed(res *Result, depth int, errnos []string) {
	if p == nil {
		return
	}
	p.ops.Inc()
	p.hub.Observe(res.Ops, res.UniqueStates, res.Revisits, res.Crash.PointsExplored, depth)
	if res.Ops%stream.HeartbeatEvery == 0 {
		p.emit(statusEvent(stream.KindWorkerHeartbeat, res, depth, ""))
	}
	p.errnos = errnos
}

// visited reports the visited-state decision for the state op reached.
func (p *probe) visited(depth int, op workload.Op, h abstraction.State, novel, expand bool) {
	if p == nil {
		return
	}
	if p.jr != nil {
		p.idle()
		p.jr.Op(depth, journal.EncodeOp(op), p.errnos, hex.EncodeToString(h[:]), novel, expand)
		p.lap(obs.PhaseJournal) // no virtual time, but the sample count is the recording overhead's denominator
	}
	if p.bus != nil { // the hex render is not free
		p.emit(stream.Event{Kind: stream.KindStep, Op: op.String(), Depth: depth,
			State: hex.EncodeToString(h[:]), Novel: novel})
	}
	switch {
	case !expand:
		p.hits.Inc()
	case novel:
		p.misses.Inc()
	}
	if expand && p.hub != nil {
		p.trailTraces = append(p.trailTraces, p.lastStep)
	}
}

// backtracked reports the restore of the state saved at depth.
func (p *probe) backtracked(depth int) {
	if p == nil {
		return
	}
	if p.jr != nil {
		p.idle()
		p.jr.Backtrack(depth)
		p.lap(obs.PhaseJournal)
	}
	p.emit(stream.Event{Kind: stream.KindBacktrack, Depth: depth})
	if len(p.trailTraces) > depth {
		p.trailTraces = p.trailTraces[:depth]
	}
}

// crashPoint opens the judgment of one crash point.
func (p *probe) crashPoint() {
	if p == nil {
		return
	}
	p.crashPoints.Inc()
	if p.bus != nil {
		p.pointPhases = p.hub.PhaseTotals()
	}
}

// crashVerdict closes it: one event per probed point, attributed to the
// recovery phase that dominated its cost.
func (p *probe) crashVerdict(depth int, op workload.Op, target string, k, w int, verdict string) {
	if p == nil {
		return
	}
	if p.bus != nil {
		p.emit(stream.Event{Kind: stream.KindCrashVerdict, Op: op.String(), Target: target,
			Depth: depth, Write: k, Writes: w, Verdict: verdict,
			Phase: obs.DominantDelta(p.pointPhases, p.hub.PhaseTotals())})
	}
	if verdict != stream.VerdictBug {
		p.crashRecoveries.Inc()
	}
}

// crashProbed journals one finished crash probe of op's write window.
func (p *probe) crashProbed(depth int, op workload.Op, rec journal.CrashRecord) {
	if p == nil || p.jr == nil {
		return
	}
	enc := journal.EncodeOp(op)
	rec.Op = &enc
	p.jr.Crash(depth, rec)
}

// bug reports the discrepancy op exposed. The journaled bug op carries
// no state hash (the discrepancy halts hashing) and a crash bug's op no
// op record at all — it was never stepped, its probe journaled a crash
// record instead; the bug record that follows carries the trail and
// forces the journal to stable storage.
func (p *probe) bug(depth int, op workload.Op, b *BugReport) {
	if p == nil {
		return
	}
	p.emit(stream.Event{Kind: stream.KindBug, Op: op.String(), Depth: len(b.Trail),
		Detail: b.Discrepancy.Kind})
	if p.hub != nil {
		for _, t := range p.trailTraces {
			b.TrailSpans = append(b.TrailSpans, t...)
		}
		b.TrailSpans = append(b.TrailSpans, p.lastStep...)
	}
	if p.jr == nil {
		return
	}
	p.idle()
	if b.Crash == nil {
		p.jr.Op(depth, journal.EncodeOp(op), p.errnos, "", false, false)
	}
	p.jr.Bug(journal.BugRecord{
		Kind:        b.Discrepancy.Kind,
		Op:          b.Discrepancy.Op,
		Details:     b.Discrepancy.Details,
		Trail:       journal.EncodeTrail(b.Trail),
		OpsExecuted: b.OpsExecuted,
		Crash:       b.Crash,
	})
	p.lap(obs.PhaseJournal)
}

// panicked reports a target panic caught at depth.
func (p *probe) panicked(r any, depth int) {
	if p == nil {
		return
	}
	p.panics.Inc()
	p.emit(stream.Event{Kind: stream.KindWorkerPanic, Depth: depth, Detail: fmt.Sprintf("%v", r)})
}

// done closes the run on every plane that has a notion of an end: the
// drain event takes the engine off the running-workers view and the
// done record gives the journal its verdict.
func (p *probe) done(status string, res *Result, depth int) {
	if p == nil {
		return
	}
	p.emit(statusEvent(stream.KindWorkerDrain, res, depth, status))
	if p.jr == nil {
		return
	}
	done := journal.DoneRecord{Ops: res.Ops, UniqueStates: res.UniqueStates, Revisits: res.Revisits, Canceled: res.Canceled}
	if res.Err != nil {
		done.Err = res.Err.Error()
	}
	p.jr.Done(done)
}

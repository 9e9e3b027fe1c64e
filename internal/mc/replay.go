// Journal replay: re-execute a flight-recorder journal deterministically
// against fresh file systems, verifying that every recorded observation
// (per-target errnos, abstract state hashes, crash verdicts, and the bug
// itself) reproduces. This is the engine's nondeterminism made
// checkable: the journal pins every choice the DFS made, so a divergence
// on replay means either the file systems or the checker behaved
// differently — exactly the signal a developer needs when a repro
// "stops working".
//
// Replay is the explore loop itself (engine.dfs), driven by a scripted
// source that answers "which op next" and "descend?" from the journal's
// records and compares what the loop observed with what was recorded.
// Anything attached to the replaying Config — a journal recorder
// included — sees the replay exactly as it would have seen the run.
package mc

import (
	"encoding/hex"
	"errors"
	"fmt"

	"mcfs/internal/abstraction"
	"mcfs/internal/checker"
	"mcfs/internal/obs/journal"
	"mcfs/internal/workload"
)

// ReplayReport summarizes one journal replay.
type ReplayReport struct {
	// Worker is the journal worker id that was replayed.
	Worker int
	// Steps counts the op records re-executed and verified.
	Steps int
	// Diverged reports that a recorded observation did not reproduce;
	// DivergedAt is the sequence number of the diverging record and
	// Reason describes the mismatch.
	Diverged   bool
	DivergedAt int64
	Reason     string
	// BugReproduced reports that the journal's bug record was reached
	// and the same discrepancy kind re-occurred; Bug is the discrepancy
	// the replay observed.
	BugReproduced bool
	Bug           *checker.Discrepancy
}

// errDiverged stops the loop when the replay observes something the
// journal did not record; the script's report says what and where.
var errDiverged = errors.New("mc: replay diverged from the journal")

func (s *script) diverged(rec *journal.Record, format string, args ...any) error {
	s.rep.Diverged, s.rep.DivergedAt, s.rep.Reason = true, rec.Seq, fmt.Sprintf(format, args...)
	return errDiverged
}

// script is the replaying source: one worker's journal records, read
// front to back by the loop they script.
type script struct {
	recs []journal.Record
	i    int         // the next unconsumed record
	op   workload.Op // the op next last handed out
	rep  ReplayReport
	// probes reports that the replaying Config can re-run crash probes;
	// without crash planes their recorded verdicts are taken on trust.
	probes bool
	// meta and bug are the journal's meta and (first) bug record.
	meta, bug *journal.Record
	// rootNovel is whether the recorded run counted its initial state as
	// a discovery — true unless a resume set or a swarm peer knew it,
	// which the done record's unique-state total gives away.
	rootNovel bool
}

func newScript(recs []journal.Record, probes bool) *script {
	s := &script{recs: recs, probes: probes, rootNovel: true}
	var novel int64
	for i := range recs {
		switch r := &recs[i]; {
		case r.T == journal.TypeMeta && r.Meta != nil && s.meta == nil:
			s.meta = r
		case r.T == journal.TypeBug && r.Bug != nil && s.bug == nil:
			s.bug = r
		case r.T == journal.TypeOp && r.Novel:
			novel++
		case r.T == journal.TypeDone && r.Done != nil:
			s.rootNovel = r.Done.UniqueStates > novel
		}
	}
	return s
}

// peek returns the next scripted record — an op, or a crash probe the
// replay can re-run — without consuming it; nil at the done record or
// the journal's end. The loop's own actions echo through the journal as
// meta, backtrack and bug records; peek steps over those.
func (s *script) peek() *journal.Record {
	for ; s.i < len(s.recs); s.i++ {
		switch r := &s.recs[s.i]; {
		case r.T == journal.TypeOp, r.T == journal.TypeCrash && s.probes:
			return r
		case r.T == journal.TypeDone:
			return nil
		}
	}
	return nil
}

// next hands out the op of the next record at this depth: an op record,
// or the crash records probing the op first (which the loop's crash
// step then consumes).
func (s *script) next(depth, _ int) (op workload.Op, ok bool, err error) {
	r := s.peek()
	if r == nil || r.Depth != depth {
		return op, false, nil
	}
	enc := r.Op
	if r.T == journal.TypeCrash && r.Crash != nil {
		enc = r.Crash.Op
	}
	if enc == nil {
		return op, false, fmt.Errorf("mc: journal record %d: %s record without op", r.Seq, r.T)
	}
	if op, err = enc.Decode(); err != nil {
		return op, false, fmt.Errorf("mc: journal record %d: %w", r.Seq, err)
	}
	s.op = op
	return op, true, nil
}

// crash re-runs the crash probes journaled ahead of op's step: each
// recorded plane is re-probed at the recorded points with the reference
// flow, and the verdict must match the record.
func (s *script) crash(e *engine, depth int, op workload.Op) error {
	for e.res.Bug == nil {
		r := s.peek()
		if r == nil || r.T != journal.TypeCrash || r.Depth != depth {
			return nil
		}
		s.i++
		if r.Crash == nil {
			return fmt.Errorf("mc: journal record %d: crash record without crash data", r.Seq)
		}
		p, err := crashPlaneFor(&e.cfg, r.Crash.Target)
		if err != nil {
			return err
		}
		d, k, err := e.reprobe(p, op, r.Crash.Points)
		if err != nil {
			return fmt.Errorf("mc: journal record %d: %w", r.Seq, err)
		}
		switch {
		case d == nil && !r.Crash.OK:
			return s.diverged(r, "crash probe of %s on %s recovered cleanly, journal recorded a crash bug", op, p.Name)
		case d != nil && r.Crash.OK:
			return s.diverged(r, "crash probe of %s on %s found %q, journal recorded clean recovery", op, p.Name, d.Kind)
		}
		e.probe.crashProbed(depth, op, *r.Crash)
		if d != nil {
			e.report(d, op, &journal.CrashSpec{Target: p.Target, TargetName: p.Name, Write: k})
		}
	}
	return nil
}

// visit checks the loop's observation of the op just stepped — or, at
// depth 0, of the initial state — against its record and answers with
// the recorded visited-state decision.
func (s *script) visit(depth int, results []checker.OpResult, h abstraction.State) (novel, expand bool, err error) {
	got := hex.EncodeToString(h[:])
	if depth == 0 {
		// The meta record pins the initial state: diverging here means
		// the replay session was assembled with different targets or
		// options.
		if s.meta != nil && s.meta.Meta.InitState != "" && s.meta.Meta.InitState != got {
			return false, false, s.diverged(s.meta, "initial state hash %s, journal recorded %s", got, s.meta.Meta.InitState)
		}
		return s.rootNovel, true, nil
	}
	r := s.peek()
	if r == nil || r.T != journal.TypeOp || r.Depth != depth-1 {
		return false, false, fmt.Errorf("mc: journal has no op record for the step at depth %d", depth-1)
	}
	s.i++
	if err := s.checkErrnos(r, results); err != nil {
		return false, false, err
	}
	switch {
	case r.State == "":
		return false, false, s.diverged(r, "op %s exposed no discrepancy, journal recorded a bug", s.op)
	case r.State != got:
		return false, false, s.diverged(r, "op %s reached state %s, journal recorded %s", s.op, got, r.State)
	}
	return r.Novel, r.Expand, nil
}

// checkErrnos compares the last step's per-target errnos with its op
// record.
func (s *script) checkErrnos(r *journal.Record, results []checker.OpResult) error {
	if len(r.Errnos) != len(results) {
		return s.diverged(r, "op %s ran on %d targets, journal recorded %d errnos", s.op, len(results), len(r.Errnos))
	}
	for i, res := range results {
		if got := res.Err.String(); got != r.Errnos[i] {
			return s.diverged(r, "op %s target %d returned %s, journal recorded %s", s.op, i, got, r.Errnos[i])
		}
	}
	return nil
}

// verdict closes a replay the loop ran to its end: the bug op's errnos
// and recorded state (its record is still unconsumed — the discrepancy
// kept the loop from visiting it), the journal's shape, and the bug
// itself.
func (s *script) verdict(e *engine) error {
	bug := e.res.Bug
	if bug != nil {
		s.rep.Bug = bug.Discrepancy
		if r := s.peek(); r != nil && r.T == journal.TypeOp && bug.Crash == nil {
			s.i++
			if err := s.checkErrnos(r, e.results); err != nil {
				return err
			}
			if r.State != "" {
				return s.diverged(r, "op %s exposed an %q discrepancy, journal recorded clean state %s", s.op, bug.Discrepancy.Kind, r.State)
			}
		}
	}
	if r := s.peek(); r != nil {
		return fmt.Errorf("mc: journal record %d: %s record does not follow the explore loop's shape", r.Seq, r.T)
	}
	switch {
	case s.bug == nil:
	case bug == nil:
		return s.diverged(s.bug, "journal recorded a bug, replay observed none")
	case bug.Discrepancy.Kind != s.bug.Bug.Kind:
		return s.diverged(s.bug, "replay discrepancy kind %q, journal recorded %q", bug.Discrepancy.Kind, s.bug.Bug.Kind)
	default:
		s.rep.BugReproduced = true
	}
	return nil
}

// ReplayJournal re-executes one worker's records from a flight-recorder
// journal against cfg's fresh targets. The worker defaults to the one
// that recorded a bug (the first op-record worker otherwise). The
// records script the engine's own explore loop — the checkpoint,
// execute, visit and restore of every recorded op happen exactly as
// they did in the run, under the search bounds the meta record carries —
// so the concrete state evolves as recorded, and every plane attached
// to cfg (a journal recorder included) sees the replay as it would have
// seen the run. Replay stops at the first divergence or runs the
// journal to its end, unwinding after a recorded bug as the run did.
func ReplayJournal(cfg Config, recs []journal.Record) (ReplayReport, error) {
	worker, ok := replayWorker(recs)
	if !ok {
		return ReplayReport{}, fmt.Errorf("mc: journal has no op records to replay")
	}
	s := newScript(journal.WorkerRecords(recs, worker), cfg.Crash != nil)
	s.rep.Worker = worker

	// The journal is the script: its visited decisions replace the set,
	// nothing cancels it, and its memory was never modeled.
	cfg.Visited, cfg.Resume, cfg.Cancel, cfg.Mem = nil, nil, nil, nil
	if s.meta != nil {
		m := s.meta.Meta
		cfg.Seed, cfg.MaxDepth, cfg.MaxOps, cfg.MaxStates = m.Seed, m.MaxDepth, m.MaxOps, m.MaxStates
	}
	e := newEngine(cfg)
	e.src = s
	res := e.run()
	s.rep.Steps = int(res.Ops)
	err := res.Err
	if err == nil {
		err = s.verdict(e)
	}
	if errors.Is(err, errDiverged) {
		err = nil
	}
	return s.rep, err
}

// replayWorker picks the journal worker to replay: the first to record
// a bug, else the first to record an op.
func replayWorker(recs []journal.Record) (int, bool) {
	if b, w := journal.FirstBug(recs); b != nil {
		return w, true
	}
	for _, r := range recs {
		if r.T == journal.TypeOp {
			return r.W, true
		}
	}
	return 0, false
}

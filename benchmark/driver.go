package main

import (
	"encoding/hex"
	"fmt"

	"mcfs"
	"mcfs/internal/abstraction"
	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/mc/visited"
	"mcfs/internal/obs/journal"
	wload "mcfs/internal/workload"
)

// spanName indexes spanNames: one name per layer function the driver
// calls. The root spans (prologue, cycle, backtrack) make up the
// canonical one-traversal cycle; spanStateHash is the engine's second
// traversal, replayed in the engine's position so caches see the
// engine's sequence, but kept outside the cycle's time.
type spanName uint8

const (
	spanPrologue spanName = iota
	spanCycle
	spanBacktrack
	spanCheckpoint
	spanPreOp
	spanExecute
	spanPostOp
	spanCheckResults
	spanCheckAndHash
	spanVisit
	spanRestore
	spanStateHash
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"mc.prologue", "mc.cycle", "mc.backtrack",
	"tracker.checkpoint", "tracker.preop", "workload.execute", "tracker.postop",
	"checker.check_results", "checker.check_and_hash", "mc.visited.visit",
	"tracker.restore", "checker.state_hash",
}

// maxTargets bounds a step's errno array.
const maxTargets = 4

// step is one journal record the driver acts on, in a pointer-free
// form: a driver pass keeps the whole script live, and a script the
// collector has to scan on each of its several hundred cycles per
// second slows the layers being timed (the engine's own live heap is a
// few hundred KB).
type step struct {
	backtrack     bool
	novel, expand bool
	depth         uint8
	op            uint16            // index into script.ops
	errnos        [maxTargets]uint8 // indices into script.errnos, one per target
	state         abstraction.State
}

// script is one worker's journal, compiled.
type script struct {
	steps   []step
	ops     []wload.Op
	errnos  []string
	targets int
	init    abstraction.State // the meta record's initial state
	hasInit bool
	// deepest is the first longest trail of expanded ops: each reached a
	// state new at its depth, so the trail ends in a deepest-level state.
	deepest []wload.Op
	// crash probes are the engine's own work; the driver only counts them.
	crashWindows, crashWindowWrites int
}

func parseState(hexState string) (st abstraction.State, err error) {
	b, err := hex.DecodeString(hexState)
	if err != nil || len(b) != len(st) {
		return st, fmt.Errorf("bad state hash %q", hexState)
	}
	copy(st[:], b)
	return st, nil
}

// compile turns one worker's records into a script.
func compile(recs []journal.Record) (*script, error) {
	sc := &script{}
	opIdx := map[wload.Op]uint16{}
	errIdx := map[string]uint8{}
	var trail []wload.Op
	for _, rec := range recs {
		switch rec.T {
		case journal.TypeMeta:
			if rec.Meta != nil && rec.Meta.InitState != "" {
				st, err := parseState(rec.Meta.InitState)
				if err != nil {
					return nil, fmt.Errorf("driver: record %d: %w", rec.Seq, err)
				}
				sc.init, sc.hasInit = st, true
			}
		case journal.TypeOp:
			if rec.Op == nil {
				return nil, fmt.Errorf("driver: record %d: op record without op", rec.Seq)
			}
			op, err := rec.Op.Decode()
			if err != nil {
				return nil, fmt.Errorf("driver: record %d: %w", rec.Seq, err)
			}
			if _, ok := opIdx[op]; !ok {
				opIdx[op] = uint16(len(sc.ops))
				sc.ops = append(sc.ops, op)
			}
			st := step{novel: rec.Novel, expand: rec.Expand, depth: uint8(rec.Depth), op: opIdx[op]}
			if st.state, err = parseState(rec.State); err != nil {
				return nil, fmt.Errorf("driver: record %d: %w", rec.Seq, err)
			}
			if len(rec.Errnos) > maxTargets || (sc.targets != 0 && len(rec.Errnos) != sc.targets) {
				return nil, fmt.Errorf("driver: record %d: %d errnos", rec.Seq, len(rec.Errnos))
			}
			sc.targets = len(rec.Errnos)
			for i, name := range rec.Errnos {
				if _, ok := errIdx[name]; !ok {
					errIdx[name] = uint8(len(sc.errnos))
					sc.errnos = append(sc.errnos, name)
				}
				st.errnos[i] = errIdx[name]
			}
			sc.steps = append(sc.steps, st)
			trail = append(trail, op)
			if rec.Expand && len(trail) > len(sc.deepest) {
				sc.deepest = append([]wload.Op(nil), trail...)
			}
		case journal.TypeBacktrack:
			if len(trail) == 0 {
				return nil, fmt.Errorf("driver: record %d: backtrack with no checkpoint", rec.Seq)
			}
			trail = trail[:len(trail)-1]
			sc.steps = append(sc.steps, step{backtrack: true})
		case journal.TypeCrash:
			if rec.Crash != nil {
				sc.crashWindows++
				sc.crashWindowWrites += rec.Crash.Writes
			}
		case journal.TypeBug:
			return nil, fmt.Errorf("driver: journal records a bug on bug-free targets: %+v", rec.Bug)
		}
	}
	if len(trail) != 0 {
		return nil, fmt.Errorf("driver: journal ends with %d checkpoints never backtracked", len(trail))
	}
	return sc, nil
}

// driveStats is what one driver pass counted.
type driveStats struct {
	ops, backtracks int
	novel, revisits int
	stateBytes      int64 // summed Tracker.StateBytes() after every op
}

// drive re-executes a script against a fresh session through the
// layers' public functions, in the canonical cycle
//
//	Tracker.Checkpoint → PreOp → workload.Execute → PostOp →
//	Checker.CheckResults → Checker.CheckAndHash → visited.Set.Visit
//
// with Tracker.Restore on every backtrack, wrapping each call in a probe
// span. It fails unless every journaled errno and state hash
// reproduces; with checkVisited (solo runs, where the table's decisions
// are a function of the script) the novel/expand decisions must too.
// Crash probes are not re-run: they are the engine's own work and stay
// in its residual.
func drive(s *mcfs.Session, sc *script, set *visited.Set, p probe, checkVisited bool) (st driveStats, err error) {
	cfg := s.Config()
	chk, trackers, k := cfg.Checker, cfg.Trackers, cfg.Kernel
	targets := chk.Targets()
	if sc.targets != len(targets) {
		return st, fmt.Errorf("driver: journal has %d targets, session %d", sc.targets, len(targets))
	}

	var keys []uint64 // open checkpoints, innermost last
	var ids []int     // the ops that took them
	defer func() {
		for _, key := range keys {
			for _, t := range trackers {
				t.Discard(key)
			}
		}
	}()

	pro := p.begin(spanPrologue, -1, 0)
	if cfg.EqualizeFreeSpace {
		if e := chk.EqualizeFreeSpace(); e != errno.OK {
			return st, fmt.Errorf("driver: equalizing free space: %w", e)
		}
	}
	h0, e := chk.StateHash()
	if e != errno.OK {
		return st, fmt.Errorf("driver: hashing initial state: %w", e)
	}
	set.Visit(h0, 0)
	p.end(pro)
	if sc.hasInit && sc.init != h0 {
		return st, fmt.Errorf("driver: initial state %s, journal recorded %s", h0, sc.init)
	}

	results := make([]checker.OpResult, len(targets))
	var nextKey uint64
	for i := range sc.steps {
		step := &sc.steps[i]
		if step.backtrack {
			key, id := keys[len(keys)-1], ids[len(ids)-1]
			keys, ids = keys[:len(keys)-1], ids[:len(ids)-1]
			st.backtracks++
			root := p.begin(spanBacktrack, -1, id)
			sp := p.begin(spanRestore, root, id)
			for i, t := range trackers {
				if err := t.Restore(key); err != nil {
					for _, rest := range trackers[i:] {
						rest.Discard(key)
					}
					return st, fmt.Errorf("driver: restore %s: %w", t.Name(), err)
				}
			}
			p.end(sp)
			p.end(root)
			continue
		}

		op := sc.ops[step.op]
		st.ops++
		id := st.ops
		root := p.begin(spanCycle, -1, id)

		key := nextKey
		nextKey++
		sp := p.begin(spanCheckpoint, root, id)
		for i, t := range trackers {
			if err := t.Checkpoint(key); err != nil {
				for _, prev := range trackers[:i] {
					prev.Discard(key)
				}
				return st, fmt.Errorf("driver: checkpoint %s: %w", t.Name(), err)
			}
		}
		p.end(sp)
		keys, ids = append(keys, key), append(ids, id)

		sp = p.begin(spanPreOp, root, id)
		for _, t := range trackers {
			if err := t.PreOp(); err != nil {
				return st, fmt.Errorf("driver: pre-op %s: %w", t.Name(), err)
			}
		}
		p.end(sp)

		sp = p.begin(spanExecute, root, id)
		for i, tgt := range targets {
			results[i] = wload.Execute(k, tgt.MountPoint, op)
		}
		p.end(sp)

		sp = p.begin(spanPostOp, root, id)
		for _, t := range trackers {
			if err := t.PostOp(); err != nil {
				return st, fmt.Errorf("driver: post-op %s: %w", t.Name(), err)
			}
		}
		p.end(sp)

		for i, res := range results {
			if got, want := res.Err.String(), sc.errnos[step.errnos[i]]; got != want {
				return st, fmt.Errorf("driver: %s on %s returned %s, journal recorded %s", op, targets[i].Name, got, want)
			}
		}

		sp = p.begin(spanCheckResults, root, id)
		d := chk.CheckResults(op.String(), results)
		p.end(sp)
		if d != nil {
			return st, fmt.Errorf("driver: %s: %v", op, d)
		}

		sp = p.begin(spanCheckAndHash, root, id)
		d, h, e := chk.CheckAndHash(op.String())
		p.end(sp)
		if e != errno.OK {
			return st, fmt.Errorf("driver: state check after %s: %w", op, e)
		}
		if d != nil {
			return st, fmt.Errorf("driver: %s: %v", op, d)
		}
		if h != step.state {
			return st, fmt.Errorf("driver: %s reached state %s, journal recorded %s", op, h, step.state)
		}

		sp = p.begin(spanVisit, root, id)
		novel, expand := set.Visit(h, int(step.depth)+1)
		p.end(sp)
		if checkVisited && (novel != step.novel || expand != step.expand) {
			return st, fmt.Errorf("driver: %s: visited table said novel=%v expand=%v, journal recorded %v/%v",
				op, novel, expand, step.novel, step.expand)
		}
		if novel {
			st.novel++
		}
		if !expand {
			st.revisits++
		}
		p.end(root)
		for _, t := range trackers {
			st.stateBytes += t.StateBytes()
		}

		// The engine's second traversal (engine.dfs hashes again after
		// step already did): timed where the engine runs it, charged to
		// no cycle.
		sp = p.begin(spanStateHash, -1, id)
		h2, e := chk.StateHash()
		p.end(sp)
		if e != errno.OK || h2 != h {
			return st, fmt.Errorf("driver: StateHash after %s = %s (%v), CheckAndHash returned %s", op, h2, e, h)
		}
	}
	return st, nil
}

package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// setupRuns is how many times a run sets up (gate + first exploration);
// setup_s is their median. minReps is the fewest timed repetitions a
// run reports a median of.
const (
	setupRuns = 3
	minReps   = 3
)

// measure is the end-to-end run: a closed loop with one client (the
// swarm workload: one per worker) that explores the workload's bounded
// space to exhaustion again and again, each repetition on fresh sessions
// with all instrumentation nil, for at least seconds of measured time.
// Repetition i explores in the order of sub-seed i, so a run's medians
// span several orders of the same space. The first set-up is timed from
// began — processStart for a process's first run.
func measure(w workload, seed int64, seconds float64, began time.Time, out io.Writer) *runResult {
	res := newRunResult(w, endToEnd)

	// Set-up: verdict gate, then the first exploration of the process
	// (lazy initialisation, heap growth). Its result is the reference
	// every later repetition must reproduce.
	var ref repResult
	var setups []float64
	for j := 0; j < setupRuns; j++ {
		t, gateOut := began, out
		if j > 0 {
			t, gateOut = now(), io.Discard
		}
		if err := verdictGate(gateOut); err != nil {
			res.fail(err)
			return res
		}
		r := w.rep(seed, 0, nil)
		setups = append(setups, now().Sub(t).Seconds())
		if j == 0 {
			ref = r
		}
		if err := w.sameExploration(ref, r, true); err != nil {
			res.fail(fmt.Errorf("set-up %d: %w", j, err))
			return res
		}
	}

	var opsPerS, statesPerS, vopsPerS, allocs, bytes, heap []float64
	start := now()
	for i := 0; i < minReps || now().Sub(start).Seconds() < seconds; i++ {
		r := w.rep(seed, i, nil)
		res.attempted += max(r.ops, ref.ops)
		if err := w.sameExploration(ref, r, i == 0); err != nil {
			res.failed += max(r.ops, ref.ops)
			res.fail(fmt.Errorf("repetition %d (seed %d): %w", i, subSeed(seed, i, 0), err))
			continue
		}
		secs, ops := r.wall.Seconds(), float64(r.ops)
		opsPerS = append(opsPerS, ops/secs)
		statesPerS = append(statesPerS, float64(r.unique)/secs)
		vopsPerS = append(vopsPerS, ops/r.virtual.Seconds())
		allocs = append(allocs, float64(r.mallocs)/ops)
		bytes = append(bytes, float64(r.bytes)/ops)
		heap = append(heap, float64(r.liveHeap)/(1<<20))
	}

	put := func(name string, v []float64) {
		if len(v) == 0 {
			return // every repetition failed; res says so
		}
		res.set(name, median(v), fmt.Sprintf("median reps=%d min=%.4f max=%.4f", len(v), slices.Min(v), slices.Max(v)))
	}
	put("ops_per_s", opsPerS)
	put("states_per_s", statesPerS)
	put("vops_per_s", vopsPerS)
	put("allocs_per_op", allocs)
	put("bytes_per_op", bytes)
	put("live_heap_mb", heap)
	put("setup_s", setups)
	fmt.Fprintf(out, "explored %s depth=%d ops=%d unique_states=%d (state set %x) per repetition\n",
		w.name, w.depth, ref.ops, ref.unique, ref.states[:6])
	return res
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"mcfs"
	"mcfs/internal/mc/visited"
	"mcfs/internal/obs/journal"
)

// spanDir is where a traced run writes its spans, relative to the
// working directory.
const spanDir = ".bench_out"

// gcCPU reads the runtime's cumulative GC and busy CPU seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// peakRSSMB is the process's high-water resident set, 0 where the
// platform does not say.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// driverPass replays every worker's script on fresh sessions sharing
// one visited set, each worker through its own probe — concurrently
// when asked (a swarm's timing pass).
func driverPass(w workload, seed int64, scripts []*script, probes []probe, concurrent bool) ([]driveStats, error) {
	set := visited.NewSet(visited.NewExact())
	stats := make([]driveStats, len(scripts))
	errs := make([]error, len(scripts))
	sessions := make([]*mcfs.Session, len(scripts))
	for i := range scripts {
		s, err := mcfs.NewSession(w.options(subSeed(seed, 0, i)))
		if err != nil {
			return nil, err
		}
		defer s.Close()
		sessions[i] = s
	}
	var wg sync.WaitGroup
	for i := range scripts {
		run := func(i int) {
			defer wg.Done()
			stats[i], errs[i] = drive(sessions[i], scripts[i], set, probes[i], len(scripts) == 1)
		}
		wg.Add(1)
		if concurrent {
			go run(i)
		} else {
			run(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// record runs one journal-recording repetition on sub-seed 0 and
// compiles each worker's records.
func record(w workload, seed int64, ref repResult) (repResult, []*script, error) {
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	r := w.rep(seed, 0, jw)
	err := w.sameExploration(ref, r, true)
	if err == nil {
		err = jw.Close()
	}
	if err != nil {
		return r, nil, fmt.Errorf("journal-recording repetition: %w", err)
	}
	recs, err := journal.Read(&buf)
	if err != nil {
		return r, nil, err
	}
	var scripts []*script
	for _, wk := range journal.Workers(recs) {
		sc, err := compile(journal.WorkerRecords(recs, wk))
		if err != nil {
			return r, nil, err
		}
		scripts = append(scripts, sc)
	}
	if len(scripts) != max(w.workers, 1) {
		return r, nil, fmt.Errorf("journal holds %d workers' records, want %d", len(scripts), max(w.workers, 1))
	}
	return r, scripts, nil
}

// rounds is what the interleaved part of a traced run collects: round
// after round, the engine bare, the engine recording its journal, and
// the driver re-executing that journal with a span around every call —
// interleaved, so the three see the same machine.
type rounds struct {
	bare, recording  []repResult
	scripts          []*script    // the first round's journal, one per worker
	traces           []*trace     // every round's, round by round
	stats            []driveStats // the last round's, one per worker
	cycleNS          []float64    // per round: the slowest worker's cycle (every root span, whole)
	cycleSum         float64      // all rounds, all workers
	gcSecs, busySecs float64      // CPU over the bare repetitions only
}

func (rd *rounds) run(w workload, seed int64, seconds float64, ref repResult, res *runResult) error {
	start := now()
	for len(rd.bare) < 2 || now().Sub(start).Seconds() < seconds {
		gc0, busy0 := gcCPU()
		r := w.rep(seed, 0, nil)
		gc1, busy1 := gcCPU()
		rd.gcSecs, rd.busySecs = rd.gcSecs+gc1-gc0, rd.busySecs+busy1-busy0
		res.attempted += max(r.ops, ref.ops)
		if err := w.sameExploration(ref, r, true); err != nil {
			res.failed += max(r.ops, ref.ops)
			return err
		}
		rd.bare = append(rd.bare, r)

		r, recorded, err := record(w, seed, ref)
		if err != nil {
			return err
		}
		rd.recording = append(rd.recording, r)
		if rd.scripts == nil {
			rd.scripts = recorded // solo journals repeat exactly; a swarm's first is as good as any
		}

		round := make([]*trace, len(rd.scripts))
		probes := make([]probe, len(rd.scripts))
		for i, sc := range rd.scripts {
			round[i] = newTrace(6*len(sc.steps) + 8)
			probes[i] = round[i]
		}
		if rd.stats, err = driverPass(w, seed, rd.scripts, probes, true); err != nil {
			return err
		}
		// A round's driver time is its slowest worker's cycle time, as the
		// engine's is its slowest worker's run.
		var slowest float64
		for _, t := range round {
			var ns float64
			for _, s := range t.spans {
				if s.parent < 0 && s.name != spanStateHash {
					ns += float64(s.end - s.start)
				}
			}
			slowest = max(slowest, ns)
			rd.cycleSum += ns
		}
		rd.cycleNS = append(rd.cycleNS, slowest)
		rd.traces = append(rd.traces, round...)
	}
	return nil
}

// traced is the per-layer run: the verdict gate, the interleaved rounds
// for half the run's time, one more driver pass with a heap ledger
// around every call (the allocation pass), the single-layer rows, and
// the arithmetic that turns all of it into the per-layer metrics.
func traced(w workload, seed int64, seconds float64, out io.Writer) *runResult {
	res := newRunResult(w, perLayer)
	if err := verdictGate(out); err != nil {
		res.fail(err)
		return res
	}
	ref := w.rep(seed, 0, nil) // warm-up, discarded
	if ref.err != nil {
		res.fail(ref.err)
		return res
	}
	var rd rounds
	if err := rd.run(w, seed, seconds/2, ref, res); err != nil {
		res.fail(err)
		return res
	}
	scripts := rd.scripts

	// Allocation pass: one ledger, workers in turn (heap counters are
	// process-wide).
	ledger := &allocLedger{}
	probes := make([]probe, len(scripts))
	for i := range probes {
		probes[i] = ledger
	}
	if _, err := driverPass(w, seed, scripts, probes, false); err != nil {
		res.fail(err)
		return res
	}

	micro, err := microRows(w, seed, scripts[0].deepest)
	if err == nil && w.xfsRows {
		err = xfs16mRows(micro)
	}
	if err == nil {
		err = visitedRows(seed, micro)
	}
	if err != nil {
		res.fail(fmt.Errorf("micro rows: %w", err))
		return res
	}
	journalRows(micro)

	// One round's spans are the record; the others only add samples.
	if path, err := writeSpans(spanDir, w.name, rd.traces[len(rd.traces)-len(scripts):]...); err != nil {
		res.fail(err)
	} else {
		fmt.Fprintf(out, "spans %s\n", path)
	}
	rd.derive(res, ledger, micro)
	return res
}

// derive turns the rounds, the allocation pass's ledger and the
// single-layer samples into the per-layer metrics.
func (rd *rounds) derive(res *runResult, ledger *allocLedger, micro rows) {
	var total driveStats
	var crashWindows, crashWindowWrites int
	for i, st := range rd.stats {
		total.ops += st.ops
		total.backtracks += st.backtracks
		total.novel += st.novel
		total.revisits += st.revisits
		total.stateBytes += st.stateBytes
		crashWindows += rd.scripts[i].crashWindows
		crashWindowWrites += rd.scripts[i].crashWindowWrites
	}
	ops := float64(total.ops)
	ls := aggregate(rd.traces...)
	p99Rows := map[string]bool{}
	for _, d := range perLayer {
		p99Rows[d.name] = strings.HasSuffix(d.name, "_p99")
	}
	call := func(name string, samples []float64, scale float64) {
		res.set(name, median(samples)/scale, fmt.Sprintf("p50 n=%d", len(samples)))
		if p99Rows[name+"_p99"] {
			p99, ok := percentile(samples, 99)
			note := fmt.Sprintf("p99 n=%d", len(samples))
			if !ok {
				note = fmt.Sprintf("n=%d: too few samples for a p99", len(samples))
			}
			res.set(name+"_p99", p99/scale, note)
		}
	}
	// layer reports one driver-cycle layer: its call time, its share of
	// the cycle and its allocations, summed over the spans it is made of.
	// It returns what the allocation pass charged it.
	layer := func(prefix string, spans ...spanName) (objs, byts float64) {
		var selfNS float64
		samples := make([]float64, len(ls.durs[spans[0]]))
		for _, n := range spans {
			selfNS += float64(ls.self[n])
			objs += float64(ledger.objects[n])
			byts += float64(ledger.bytes[n])
			for i := range samples { // PreOp+PostOp of the same op add up
				samples[i] += ls.durs[n][i]
			}
		}
		call(prefix+"_us", samples, 1e3)
		res.set(prefix+"_share", selfNS/rd.cycleSum, "self time / driver cycle time")
		res.set(prefix+"_bytes_per_op", byts/ops, "allocation pass")
		res.set(prefix+"_allocs_per_op", objs/ops, "allocation pass")
		return objs, byts
	}
	var cycleObjs, cycleBytes float64
	inCycle := func(objs, byts float64) { cycleObjs, cycleBytes = cycleObjs+objs, cycleBytes+byts }
	inCycle(layer("tracker.checkpoint", spanCheckpoint))
	inCycle(layer("tracker.restore", spanRestore))
	inCycle(layer("tracker.remount", spanPreOp, spanPostOp))
	inCycle(layer("workload.execute", spanExecute))
	inCycle(layer("checker.check_results", spanCheckResults))
	inCycle(layer("checker.check_and_hash", spanCheckAndHash))
	inCycle(layer("mc.visited", spanVisit))
	var ohNS, ohObjs, ohBytes float64 // what the driver itself costs: the roots' self time
	for _, n := range []spanName{spanPrologue, spanCycle, spanBacktrack} {
		ohNS += float64(ls.self[n])
		ohObjs += float64(ledger.objects[n])
		ohBytes += float64(ledger.bytes[n])
	}
	res.set("mc.driver_overhead_share", ohNS/rd.cycleSum, "root spans' self time / driver cycle time")
	inCycle(ohObjs, ohBytes)
	layer("checker.state_hash", spanStateHash) // beside the cycle, not in it
	res.set("tracker.state_bytes", float64(total.stateBytes)/ops, "mean summed StateBytes() per op")

	for _, d := range perLayer {
		if samples, ok := micro[d.name]; ok {
			switch d.unit {
			case "us":
				call(d.name, samples, 1e3)
			case "ns":
				call(d.name, samples, 1)
			default:
				res.set(d.name, mean(samples), fmt.Sprintf("mean n=%d", len(samples)))
			}
		}
	}
	if crashWindows > 0 {
		res.set("fault.window_writes", float64(crashWindowWrites)/float64(crashWindows),
			fmt.Sprintf("mean over %d journaled crash windows", crashWindows))
	}

	// Wall-time ratios are taken round by round, between neighbours in
	// time, and then the median: the box's speed wanders between rounds.
	var residual, overhead, engineOps, engineBytes, engineObjs, gcs, crashPts []float64
	for i, r := range rd.bare {
		residual = append(residual, 1-rd.cycleNS[i]/float64(r.runWall))
		overhead = append(overhead, float64(rd.recording[i].runWall)/float64(r.runWall)-1)
		engineOps = append(engineOps, float64(r.ops))
		engineBytes = append(engineBytes, float64(r.bytes)/float64(r.ops))
		engineObjs = append(engineObjs, float64(r.mallocs)/float64(r.ops))
		gcs = append(gcs, float64(r.gcs)/float64(r.ops)*1000)
		crashPts = append(crashPts, float64(r.crashPoints)/r.wall.Seconds())
	}
	reps := fmt.Sprintf("median rounds=%d", len(rd.bare))
	// Engine allocations are per engine op; the driver replays journal
	// ops only (crash-probe executions are engine ops with no record).
	perEngineOp := ops / median(engineOps)
	res.set("mc.driver_ops_per_s", ops/(median(rd.cycleNS)/1e9), "journal ops / driver cycle time, "+reps)
	res.set("mc.engine_residual_share", median(residual), "1 - driver cycle time / engine Run time, "+reps)
	res.set("mc.engine_residual_bytes_per_op", median(engineBytes)-cycleBytes/ops*perEngineOp, "engine B/op - driver cycle B/op, per engine op")
	res.set("mc.engine_residual_allocs_per_op", median(engineObjs)-cycleObjs/ops*perEngineOp, "engine allocs/op - driver cycle allocs/op, per engine op")
	res.set("mc.ops", median(engineOps), "engine ops (crash-probe executions included); driver replayed "+strconv.Itoa(total.ops))
	res.set("mc.unique_states", float64(rd.bare[0].unique), "count")
	res.set("mc.revisits", float64(total.revisits), "count")
	res.set("mc.backtracks", float64(total.backtracks), "count")
	res.set("mc.novel_per_op", float64(total.novel)/ops, "novel states / journal ops")
	res.set("mc.crash_points_per_s", median(crashPts), reps)
	res.set("mc.trace_overhead", median(overhead), "journal-recording Run time / bare Run time - 1, "+reps)
	res.set("runtime.gc_cpu_share", rd.gcSecs/max(rd.busySecs, 1e-9), "GC cpu-seconds / busy cpu-seconds over the bare repetitions")
	res.set("runtime.gc_per_kop", median(gcs), reps)
	res.set("runtime.peak_rss_mb", peakRSSMB(), "VmHWM")
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer rows
// have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the numbers a user of the checker sees, reported for
// every workload with tracing off. README.md derives each bound.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"states_per_s", "1/s", "higher", 0.25},
	{"vops_per_s", "1/s", "higher", 0.005},
	{"allocs_per_op", "allocs/op", "lower", 0.02},
	{"bytes_per_op", "B/op", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's rows, named after the module (layer)
// they measure. _us/_ns rows are the median call; a _p99 twin is the
// 99th percentile and reads 0 when the run had fewer than 1000 such
// calls. _share rows are a span's self time over the driver's cycle
// time. Rows of a layer the workload's targets do not have read 0.
var perLayer = []metricDef{
	{"tracker.checkpoint_us", "us", "lower", 0},
	{"tracker.checkpoint_us_p99", "us", "lower", 0},
	{"tracker.restore_us", "us", "lower", 0},
	{"tracker.restore_us_p99", "us", "lower", 0},
	{"tracker.remount_us", "us", "lower", 0},
	{"tracker.remount_us_p99", "us", "lower", 0},
	{"tracker.checkpoint_share", "share", "lower", 0},
	{"tracker.restore_share", "share", "lower", 0},
	{"tracker.remount_share", "share", "lower", 0},
	{"tracker.state_bytes", "bytes", "lower", 0},
	{"tracker.checkpoint_us.xfs16m", "us", "lower", 0},
	{"tracker.restore_us.xfs16m", "us", "lower", 0},
	{"tracker.checkpoint_bytes_per_op", "B/op", "lower", 0},
	{"tracker.checkpoint_allocs_per_op", "allocs/op", "lower", 0},
	{"tracker.restore_bytes_per_op", "B/op", "lower", 0},
	{"tracker.restore_allocs_per_op", "allocs/op", "lower", 0},
	{"tracker.remount_bytes_per_op", "B/op", "lower", 0},
	{"tracker.remount_allocs_per_op", "allocs/op", "lower", 0},

	{"checker.check_results_us", "us", "lower", 0},
	{"checker.check_results_us_p99", "us", "lower", 0},
	{"checker.check_results_share", "share", "lower", 0},
	{"checker.check_results_bytes_per_op", "B/op", "lower", 0},
	{"checker.check_results_allocs_per_op", "allocs/op", "lower", 0},
	{"checker.check_and_hash_us", "us", "lower", 0},
	{"checker.check_and_hash_us_p99", "us", "lower", 0},
	{"checker.check_and_hash_share", "share", "lower", 0},
	{"checker.check_and_hash_bytes_per_op", "B/op", "lower", 0},
	{"checker.check_and_hash_allocs_per_op", "allocs/op", "lower", 0},
	{"checker.state_hash_us", "us", "lower", 0},
	{"checker.state_hash_us_p99", "us", "lower", 0},
	{"checker.state_hash_share", "share", "lower", 0},
	{"checker.state_hash_bytes_per_op", "B/op", "lower", 0},
	{"checker.state_hash_allocs_per_op", "allocs/op", "lower", 0},
	{"abstraction.hash_us", "us", "lower", 0},
	{"abstraction.records", "count", "lower", 0},

	{"workload.execute_us", "us", "lower", 0},
	{"workload.execute_us_p99", "us", "lower", 0},
	{"workload.execute_share", "share", "lower", 0},
	{"workload.execute_bytes_per_op", "B/op", "lower", 0},
	{"workload.execute_allocs_per_op", "allocs/op", "lower", 0},
	{"kernel.syscall_us", "us", "lower", 0},
	{"kernel.syscall_us_p99", "us", "lower", 0},
	{"kernel.remount_us", "us", "lower", 0},
	{"fuse.roundtrip_us", "us", "lower", 0},
	{"fuse.roundtrip_us_p99", "us", "lower", 0},
	{"fs.extfs.mount_us", "us", "lower", 0},
	{"fs.extfs.sync_us", "us", "lower", 0},
	{"fs.extfs.fsck_us", "us", "lower", 0},
	{"fs.jffs2sim.mount_scan_us", "us", "lower", 0},
	{"fs.verifs2.checkpoint_us", "us", "lower", 0},
	{"fs.verifs2.restore_us", "us", "lower", 0},

	{"blockdev.snapshot_us", "us", "lower", 0},
	{"blockdev.restore_us", "us", "lower", 0},
	{"blockdev.load_image_delta_us", "us", "lower", 0},
	{"blockdev.image_bytes", "bytes", "lower", 0},
	{"fault.window_writes", "count", "lower", 0},
	{"fault.touched_bytes", "bytes", "lower", 0},

	{"mc.driver_ops_per_s", "1/s", "higher", 0},
	{"mc.driver_overhead_share", "share", "lower", 0},
	{"mc.engine_residual_share", "share", "lower", 0},
	{"mc.engine_residual_bytes_per_op", "B/op", "lower", 0},
	{"mc.engine_residual_allocs_per_op", "allocs/op", "lower", 0},
	{"mc.ops", "count", "lower", 0},
	{"mc.unique_states", "count", "higher", 0},
	{"mc.revisits", "count", "lower", 0},
	{"mc.backtracks", "count", "lower", 0},
	{"mc.novel_per_op", "ratio", "higher", 0},
	{"mc.crash_points_per_s", "1/s", "higher", 0},
	{"mc.visited.visit_ns.exact", "ns", "lower", 0},
	{"mc.visited.visit_ns.compact", "ns", "lower", 0},
	{"mc.visited.visit_ns.bitstate", "ns", "lower", 0},
	{"mc.visited.visit_ns.shared2", "ns", "lower", 0},
	{"mc.visited_us", "us", "lower", 0},
	{"mc.visited_share", "share", "lower", 0},
	{"mc.visited_bytes_per_op", "B/op", "lower", 0},
	{"mc.visited_allocs_per_op", "allocs/op", "lower", 0},
	{"obs.journal.append_ns", "ns", "lower", 0},
	{"mc.trace_overhead", "share", "lower", 0},

	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"runtime.gc_per_kop", "count", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
}

// runResult is one run's outcome: the line the benchmark's caller
// parses, plus the values behind it.
type runResult struct {
	workload  string
	attempted int64 // operations attempted in the measured repetitions
	failed    int64 // operations of repetitions that failed whole
	values    map[string]float64
	notes     map[string]string // how each value was aggregated
	defs      []metricDef
	errs      []error
}

func newRunResult(w workload, defs []metricDef) *runResult {
	return &runResult{workload: w.name, values: map[string]float64{}, notes: map[string]string{}, defs: defs}
}

func (r *runResult) set(name string, v float64, note string) {
	r.values[name], r.notes[name] = v, note
}

func (r *runResult) fail(err error) { r.errs = append(r.errs, err) }

func (r *runResult) correct() bool { return len(r.errs) == 0 && r.failed == 0 && r.attempted > 0 }

// print writes every metric by name with its unit, then the one-line
// JSON result last.
func (r *runResult) print(out io.Writer) error {
	for _, err := range r.errs {
		fmt.Fprintf(out, "FAILED %s: %v\n", r.workload, err)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.defs))
	for _, d := range r.defs {
		fmt.Fprintf(out, "metric %-16s %-38s %14.4f %-10s %s\n", r.workload, d.name, r.values[d.name], d.unit, r.notes[d.name])
		metrics[d.name] = value{r.values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

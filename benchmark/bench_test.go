package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/mc/visited"
)

// tiny shrinks a workload so the whole suite stays within a few
// seconds: the same targets and layers, a shallower space.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.depth = 2
	if w.crash {
		w.depth = 1
	}
	return w
}

func recordTiny(t *testing.T, w workload) []*script {
	t.Helper()
	ref := w.rep(1, 0, nil)
	if ref.err != nil {
		t.Fatalf("%s: %v", w.name, ref.err)
	}
	_, scripts, err := record(w, 1, ref)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return scripts
}

// The layer driver must reproduce every journaled errno, state hash and
// visited-table decision of an engine run, on every solo workload.
func TestDriverReproducesEngineJournal(t *testing.T) {
	for _, name := range []string{"verifs-deep", "ext-pair", "ext-jffs2", "ext-crash"} {
		w := tiny(t, name)
		sc := recordTiny(t, w)[0]
		s, err := mcfs.NewSession(w.options(1))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTrace(0)
		set := visited.NewSet(visited.NewExact())
		st, err := drive(s, sc, set, tr, true)
		s.Close()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var ops int
		for _, step := range sc.steps {
			if !step.backtrack {
				ops++
			}
		}
		if st.ops != ops || st.backtracks != ops || ops == 0 {
			t.Errorf("%s: drove %d ops, %d backtracks; script has %d ops", name, st.ops, st.backtracks, ops)
		}
		if got := set.NovelCount(); got != int64(st.novel)+1 {
			t.Errorf("%s: set holds %d novel states, driver counted %d + the initial one", name, got, st.novel)
		}
		if w.crash && sc.crashWindows == 0 {
			t.Errorf("%s: journal carries no crash windows", name)
		}
		for _, sp := range tr.spans {
			if sp.end < sp.start {
				t.Fatalf("%s: span %s never closed", name, spanNames[sp.name])
			}
		}
	}
}

// A journal that does not describe what the layers do must fail the run.
func TestDriverRejectsWrongJournal(t *testing.T) {
	w := tiny(t, "verifs-deep")
	for ci, corrupt := range []func(*script){
		func(sc *script) {
			for i := len(sc.steps) / 2; ; i++ {
				if !sc.steps[i].backtrack {
					sc.steps[i].state[0] ^= 1
					return
				}
			}
		},
		func(sc *script) { sc.errnos[0], sc.errnos[1] = sc.errnos[1], sc.errnos[0] },
		func(sc *script) {
			for i := range sc.steps {
				if !sc.steps[i].backtrack && sc.steps[i].novel {
					sc.steps[i].novel = false
					return
				}
			}
		},
	} {
		sc := recordTiny(t, w)[0]
		corrupt(sc)
		s, err := mcfs.NewSession(w.options(1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = drive(s, sc, visited.NewSet(visited.NewExact()), newTrace(0), true)
		s.Close()
		if err == nil {
			t.Errorf("driver accepted corrupted script %d", ci)
		}
	}
}

// The swarm's journal interleaves two workers; each worker's records
// replay on their own.
func TestDriverReplaysSwarmWorkers(t *testing.T) {
	w := tiny(t, "verifs-swarm2")
	scripts := recordTiny(t, w)
	if len(scripts) != 2 {
		t.Fatalf("got %d scripts, want 2", len(scripts))
	}
	probes := []probe{newTrace(0), newTrace(0)}
	if _, err := driverPass(w, 1, scripts, probes, true); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{name: spanCycle, start: 0, end: 100, parent: -1},       // 0: children cover 10-30, 25-50 (overlap), 60-70
		{name: spanCheckpoint, start: 10, end: 30, parent: 0},   // 1
		{name: spanExecute, start: 25, end: 50, parent: 0},      // 2: overlaps 1
		{name: spanCheckAndHash, start: 60, end: 70, parent: 0}, // 3: has its own child
		{name: spanVisit, start: 62, end: 66, parent: 3},        // 4: grandchild, not charged to 0
		{name: spanBacktrack, start: 100, end: 120, parent: -1}, // 5: no children
		{name: spanRestore, start: 90, end: 130, parent: 5},     // 6: sticks out of its parent on both sides
	}
	want := []int64{100 - (40 + 10), 20, 25, 10 - 4, 4, 0, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spanNames[spans[i].name], got[i], want[i])
		}
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i*7919)%n + 1) // a permutation of 1..n when n is not a multiple of 7919
		}
		return v
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{999, 99, false, 0},
		{1000, 99, true, 991},
		{5000, 99, true, 4951},
		{19, 50, false, 0},
		{20, 50, true, 11},
		{99, 90, false, 0},
		{100, 90, true, 91},
		{0, 50, false, 0},
	} {
		got, ok := percentile(samples(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

var sink [][]byte // keeps the ledger test's allocations on the heap

func TestAllocLedgerChargesNestedSpansOnce(t *testing.T) {
	sink = nil
	a := &allocLedger{}
	root := a.begin(spanCycle, -1, 1)
	sink = append(sink, make([]byte, 1<<16))
	kid := a.begin(spanExecute, root, 1)
	sink = append(sink, make([]byte, 1<<18))
	a.end(kid)
	a.end(root)
	if len(sink) != 2 {
		t.Fatal("allocations were optimised away")
	}
	if b := a.bytes[spanExecute]; b < 1<<18 || b > 1<<18+1<<12 {
		t.Errorf("child charged %d bytes, want about %d", b, 1<<18)
	}
	if b := a.bytes[spanCycle]; b < 1<<16 || b > 1<<16+1<<12 {
		t.Errorf("root charged %d bytes, want about %d (its own, not the child's)", b, 1<<16)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// BENCHMARK.json and the registries in metrics.go / workloads.go are two
// copies of one contract.
func TestBenchmarkJSONMatchesRegistries(t *testing.T) {
	spec := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go (2..8 allowed)", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go %q / %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	check := func(kind string, got []jsonMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(want) < 1 || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go (1..%d allowed)", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			name(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, metrics.go %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: unit %q of %s", kind, d.unit, d.name)
			}
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("%s: better=%q of %s", kind, d.better, d.name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: %s needs the same bound in (0, 0.25] in both places, has %v and %v", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must have no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	check("per_layer", spec.PerLayer, perLayer, 128, false)

	for i, n := range spanNames {
		if n == "" {
			t.Errorf("span name %d has no string", i)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if strings.Join(spec.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, out string) (correct bool, names map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
	}
	names = map[string]string{}
	for n, m := range res.Metrics {
		names[n] = m.Unit
	}
	return res.Correct, names
}

// What a run prints is exactly what BENCHMARK.json lists: every
// end-to-end metric with tracing off, every per-layer metric with it on.
func TestRunsPrintTheMetricsBenchmarkJSONNames(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, c := range []struct {
		workload string
		want     []jsonMetric
		run      func(w workload, out io.Writer) *runResult
		nonZero  []string
	}{
		{"verifs-deep", spec.EndToEnd, func(w workload, out io.Writer) *runResult { return measure(w, 3, 0, now(), out) }, nil},
		{"ext-pair", spec.PerLayer, func(w workload, out io.Writer) *runResult { return traced(w, 3, 0, out) },
			[]string{"tracker.checkpoint_us.xfs16m", "blockdev.snapshot_us", "fs.extfs.fsck_us", "mc.engine_residual_share"}},
		{"ext-crash", spec.PerLayer, func(w workload, out io.Writer) *runResult { return traced(w, 3, 0, out) },
			[]string{"fault.window_writes", "fault.touched_bytes", "mc.crash_points_per_s"}},
	} {
		var out bytes.Buffer
		res := c.run(tiny(t, c.workload), &out)
		if err := res.print(&out); err != nil {
			t.Fatal(err)
		}
		correct, got := lastLine(t, out.String())
		if !correct {
			t.Errorf("%s: run reported itself incorrect:\n%s", c.workload, out.String())
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", c.workload, len(got), len(c.want))
		}
		for _, m := range c.want {
			if unit, ok := got[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: metric %s: printed unit %q (present=%v), BENCHMARK.json says %q", c.workload, m.Name, unit, ok, m.Unit)
			}
			if !strings.Contains(out.String(), " "+m.Name+" ") {
				t.Errorf("%s: no human-readable line for %s", c.workload, m.Name)
			}
		}
		for _, n := range c.nonZero {
			if res.values[n] == 0 {
				t.Errorf("%s: %s reads 0", c.workload, n)
			}
		}
		if len(c.want) == len(spec.EndToEnd) {
			for _, m := range c.want {
				if res.values[m.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", c.workload, m.Name, res.values[m.Name])
				}
			}
		}
	}
	os.RemoveAll(spanDir) // the traced runs' span dumps
}

// The verdict gate's expectations must hold, and a gate that looks for
// a bug in targets that do not carry it must say so.
func TestVerdictGate(t *testing.T) {
	var out bytes.Buffer
	if err := verdictGate(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "ops_to_find="); n != len(hunts) {
		t.Errorf("gate printed %d ops_to_find counts, want %d", n, len(hunts))
	}
	clean := hunts[0]
	clean.targets, clean.depth = []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "verifs1"}}, 2
	if _, err := clean.run(); err == nil {
		t.Error("hunt on bug-free targets reported a find")
	}
	wrong := hunts[2]
	wrong.wantDetail = "size"
	if _, err := wrong.run(); err == nil {
		t.Error("hunt accepted a discrepancy other than the seeded one")
	}
}

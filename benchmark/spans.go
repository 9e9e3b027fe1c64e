package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart anchors setup_s: package initialisation runs before
// main, so this is as close to process start as user code gets.
var processStart = now()

// now is the benchmark's one wall-clock read. Everything the engine
// hashes or journals stays on the virtual clock; wall time only ever
// becomes a reported number.
func now() time.Time {
	//lint:ignore walltime measuring wall time is this package's purpose; the value is reported, never hashed, journaled or replayed
	return time.Now()
}

// span is one timed call into a layer: which layer function, when it
// ran (nanoseconds since the trace began), the span that caused it (-1
// for a root) and the explored operation it belongs to. Pointer-free,
// so a trace of tens of thousands of spans costs the collector nothing.
type span struct {
	name       spanName
	start, end int64
	parent, op int32
}

// probe is what the layer driver wraps every call in. The timing trace
// and the allocation ledger implement it, so one driver serves both
// passes and the timed pass never pays for a stop-the-world heap read.
type probe interface {
	begin(name spanName, parent, op int) int
	end(id int)
}

// trace keeps spans in memory for the whole run; they are written out
// once, when the run ends.
type trace struct {
	t0    time.Time
	spans []span
}

func newTrace(capacity int) *trace {
	return &trace{t0: now(), spans: make([]span, 0, capacity)}
}

func (t *trace) begin(name spanName, parent, op int) int {
	t.spans = append(t.spans, span{name: name, parent: int32(parent), op: int32(op), start: int64(now().Sub(t.t0))})
	return len(t.spans) - 1
}

func (t *trace) end(id int) { t.spans[id].end = int64(now().Sub(t.t0)) }

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Overlapping children (concurrent
// callees) are merged first, so covered time is never counted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerStats aggregates traces by span name.
type layerStats struct {
	durs [numSpanNames][]float64 // per-call duration, ns
	self [numSpanNames]int64     // summed self time, ns
}

func aggregate(traces ...*trace) *layerStats {
	ls := &layerStats{}
	for _, t := range traces {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			ls.durs[s.name] = append(ls.durs[s.name], float64(s.end-s.start))
			ls.self[s.name] += self[i]
		}
	}
	return ls
}

// percentile returns the p-th percentile (0 < p < 100) of samples, and
// false when fewer than ten samples lie beyond it — a tail read off
// fewer points is one outlier, not a percentile.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 || float64(n)*(100-p)/100 < 10 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[min(n-1, int(float64(n)*p/100))], true
}

// median is the statistic every repeated timing is reported as; with
// five to ten repetitions no higher percentile is supported.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// writeSpans dumps the traces as NDJSON, one span per line with its
// trace index, under dir.
func writeSpans(dir, workload string, traces ...*trace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range traces {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Trace  int    `json:"trace"`
				Name   string `json:"name"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
				Parent int32  `json:"parent"`
				Op     int32  `json:"op"`
			}{ti, spanNames[s.name], s.start, s.end, s.parent, s.op}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// allocLedger is the allocation pass's probe: it charges the heap
// objects and bytes allocated between begin and end to the span's name,
// net of what nested spans were charged. ReadMemStats stops the world,
// which is why this pass is separate from the timed one.
type allocLedger struct {
	open    []allocFrame
	objects [numSpanNames]uint64
	bytes   [numSpanNames]uint64
}

type allocFrame struct {
	name             spanName
	mallocs, total   uint64 // counters at begin
	kidObjs, kidByte uint64 // charged to nested spans
}

func (a *allocLedger) begin(name spanName, _, _ int) int {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.open = append(a.open, allocFrame{name: name, mallocs: m.Mallocs, total: m.TotalAlloc})
	return len(a.open) - 1
}

func (a *allocLedger) end(id int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if id != len(a.open)-1 {
		panic(fmt.Sprintf("benchmark: span %d closed out of order (innermost is %d)", id, len(a.open)-1))
	}
	f := a.open[id]
	a.open = a.open[:id]
	objs, byts := m.Mallocs-f.mallocs, m.TotalAlloc-f.total
	a.objects[f.name] += objs - f.kidObjs
	a.bytes[f.name] += byts - f.kidByte
	if id > 0 {
		a.open[id-1].kidObjs += objs
		a.open[id-1].kidByte += byts
	}
}

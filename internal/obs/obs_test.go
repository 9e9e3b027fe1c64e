package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is a manually stepped time base for deterministic spans and
// histogram observations.
type testClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *testClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

func newTestHub() (*Hub, *testClock) {
	clk := &testClock{}
	h := New()
	h.SetNow(clk.Now)
	return h, clk
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int // bucket index
	}{
		{0, 0},
		{-time.Second, 0}, // clamped negative
		{time.Nanosecond, 0},
		{time.Microsecond, 0},                   // exactly at bound 0
		{time.Microsecond + time.Nanosecond, 1}, // just past bound 0
		{2 * time.Microsecond, 1},               // exactly at bound 1
		{3 * time.Microsecond, 2},               // ceil-µs rounding
		{4 * time.Microsecond, 2},               // exactly at bound 2
		{1024 * time.Microsecond, 10},           // 1µs<<10
		{1025 * time.Microsecond, 11},           // just past
		{time.Hour, HistogramBuckets - 1},       // overflow clamps to last
		{1 << 62, HistogramBuckets - 1},         // huge values clamp too
	}
	for _, tc := range cases {
		h := newHistogram()
		h.Observe(tc.d)
		snap := h.Snapshot()
		if len(snap.Buckets) != 1 {
			t.Fatalf("Observe(%v): want exactly one non-empty bucket, got %v", tc.d, snap.Buckets)
		}
		want := BucketBound(tc.want)
		if snap.Buckets[0].UpperBound != want {
			t.Errorf("Observe(%v): bucket bound %v, want %v (index %d)",
				tc.d, snap.Buckets[0].UpperBound, want, tc.want)
		}
	}
}

func TestBucketBoundInvariant(t *testing.T) {
	// Every bound must land in its own bucket, and bound+1ns in the next
	// (except the last, which absorbs overflow).
	for i := 0; i < HistogramBuckets; i++ {
		b := BucketBound(i)
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(BucketBound(%d)=%v) = %d", i, b, got)
		}
		if i+1 < HistogramBuckets {
			if got := bucketIndex(b + time.Nanosecond); got != i+1 {
				t.Errorf("bucketIndex(BucketBound(%d)+1ns) = %d, want %d", i, got, i+1)
			}
		}
	}
	if BucketBound(0) != time.Microsecond {
		t.Errorf("BucketBound(0) = %v, want 1µs", BucketBound(0))
	}
	if BucketBound(1) != 2*time.Microsecond {
		t.Errorf("BucketBound(1) = %v, want 2µs", BucketBound(1))
	}
}

func TestHistogramMinMaxMeanSum(t *testing.T) {
	h := newHistogram()
	for _, d := range []time.Duration{5 * time.Microsecond, time.Millisecond, 20 * time.Microsecond} {
		h.Observe(d)
	}
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if want := 1025 * time.Microsecond; snap.Sum != want {
		t.Errorf("sum = %v, want %v", snap.Sum, want)
	}
	if snap.Min != 5*time.Microsecond {
		t.Errorf("min = %v, want 5µs", snap.Min)
	}
	if snap.Max != time.Millisecond {
		t.Errorf("max = %v, want 1ms", snap.Max)
	}
	if want := snap.Sum / 3; snap.Mean() != want {
		t.Errorf("mean = %v, want %v", snap.Mean(), want)
	}
	if empty := newHistogram().Snapshot(); empty.Min != 0 || empty.Mean() != 0 {
		t.Errorf("empty histogram min=%v mean=%v, want zeros", empty.Min, empty.Mean())
	}
}

func TestConcurrentCounters(t *testing.T) {
	h, _ := newTestHub()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := h.Counter("shared")
			gg := h.Gauge("level")
			hist := h.Histogram("lat")
			for i := 0; i < perG; i++ {
				c.Inc()
				gg.Add(1)
				hist.Observe(time.Duration(i%7) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := h.Gauge("level").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := h.Histogram("lat").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Hub {
		h, _ := newTestHub()
		h.Counter("b.counter").Add(2)
		h.Counter("a.counter").Add(1)
		h.Gauge("z.gauge").Set(9)
		h.Gauge("a.gauge").Set(-3)
		h.Histogram("m.hist").Observe(5 * time.Microsecond)
		h.Histogram("m.hist").Observe(3 * time.Millisecond)
		return h
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := build().Snapshot().WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if bufs[0].String() != bufs[1].String() {
		t.Errorf("snapshot JSON not deterministic:\n%s\nvs\n%s", bufs[0].String(), bufs[1].String())
	}
	var decoded Snapshot
	if err := json.Unmarshal(bufs[0].Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Counters["a.counter"] != 1 || decoded.Counters["b.counter"] != 2 {
		t.Errorf("decoded counters wrong: %v", decoded.Counters)
	}
	if decoded.Histograms["m.hist"].Count != 2 {
		t.Errorf("decoded histogram wrong: %+v", decoded.Histograms["m.hist"])
	}
}

func TestNilHubNoOps(t *testing.T) {
	var h *Hub
	// None of these may panic, and all must return inert values.
	h.SetNow(func() time.Duration { return time.Second })
	if h.Now() != 0 {
		t.Error("nil hub Now() != 0")
	}
	c := h.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := h.Gauge("x")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	hist := h.Histogram("x")
	hist.Observe(time.Second)
	if hist.Count() != 0 || hist.Snapshot().Count != 0 {
		t.Error("nil histogram accumulated")
	}
	h.StartCollecting()
	sp := h.StartSpan(LayerMC, "noop")
	sp.End()
	h.StartTimed(LayerTracker, "timed", hist).End()
	(SpanHandle{}).End() // the zero handle, explicitly
	if h.StopCollecting() != nil {
		t.Error("nil hub collected spans")
	}
	snap := h.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil hub snapshot not empty: %+v", snap)
	}
}

func TestSpanNestingAndTiming(t *testing.T) {
	h, clk := newTestHub()
	h.StartCollecting()
	outer := h.StartSpan(LayerMC, "outer")
	clk.Advance(10 * time.Microsecond)
	inner := h.StartSpan(LayerKernel, "inner")
	clk.Advance(5 * time.Microsecond)
	inner.End()
	clk.Advance(1 * time.Microsecond)
	outer.End()

	spans := h.StopCollecting()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: inner first.
	in, out := spans[0], spans[1]
	if in.Name != "inner" || out.Name != "outer" {
		t.Fatalf("unexpected order: %v", spans)
	}
	if in.Parent != out.ID {
		t.Errorf("inner.Parent = %d, want %d", in.Parent, out.ID)
	}
	if out.Parent != 0 {
		t.Errorf("outer.Parent = %d, want 0 (root)", out.Parent)
	}
	if in.Duration() != 5*time.Microsecond {
		t.Errorf("inner duration = %v, want 5µs", in.Duration())
	}
	if out.Duration() != 16*time.Microsecond {
		t.Errorf("outer duration = %v, want 16µs", out.Duration())
	}
	if in.Start != 10*time.Microsecond {
		t.Errorf("inner start = %v, want 10µs", in.Start)
	}
}

// TestCollectionWindowIsTheOnlySpanStore: a collection window returns
// every span completed inside it, in completion order, and a span
// completed outside any window is retained nowhere in the hub — the
// engine reads spans only through windows, so a hub costs no per-span
// memory between them.
func TestCollectionWindowIsTheOnlySpanStore(t *testing.T) {
	h, _ := newTestHub()
	h.StartCollecting()
	for i := 0; i < 10; i++ {
		h.StartSpan(LayerMC, fmt.Sprintf("in%d", i)).End()
	}
	collected := h.StopCollecting()
	if len(collected) != 10 || collected[0].Name != "in0" || collected[9].Name != "in9" {
		t.Fatalf("collection window returned %v, want in0..in9 in completion order", collected)
	}
	hist := h.Histogram("t")
	for i := 0; i < 100; i++ {
		h.StartSpan(LayerMC, fmt.Sprintf("out%d", i)).End()
		h.StartTimed(LayerTracker, fmt.Sprintf("timed%d", i), hist).End()
	}
	if got := retainedSpans(reflect.ValueOf(h).Elem()); len(got) != 0 {
		t.Errorf("hub retains %d completed spans outside a collection window: %v", len(got), got)
	}
	if hist.Count() != 100 {
		t.Errorf("timed spans observed %d durations, want 100", hist.Count())
	}
	h.StartCollecting()
	if got := h.StopCollecting(); len(got) != 0 {
		t.Errorf("a new window returned %d spans completed before it opened", len(got))
	}
}

// retainedSpans walks v's fields and returns the names of every Span
// held in a slice (within its length) or a fixed-size array.
func retainedSpans(v reflect.Value) []string {
	var out []string
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, retainedSpans(v.Field(i))...)
		}
	case reflect.Slice, reflect.Array:
		if v.Type().Elem() != reflect.TypeOf(Span{}) {
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			out = append(out, v.Index(i).FieldByName("Name").String())
		}
	}
	return out
}

func TestStartTimedObservesSpanDuration(t *testing.T) {
	h, clk := newTestHub()
	hist := h.Histogram("tracker.t.checkpoint")
	h.StartCollecting()
	sp := h.StartTimed(LayerTracker, "checkpoint:t", hist)
	clk.Advance(7 * time.Microsecond)
	sp.End()
	spans := h.StopCollecting()
	if len(spans) != 1 || spans[0].Duration() != 7*time.Microsecond {
		t.Fatalf("timed span = %v, want one 7µs span", spans)
	}
	if snap := hist.Snapshot(); snap.Count != 1 || snap.Sum != 7*time.Microsecond {
		t.Errorf("histogram = %v, want one 7µs observation", snap)
	}
}

func TestHubReadsZeroUntilSetNow(t *testing.T) {
	h := New()
	if got := h.Now(); got != 0 {
		t.Fatalf("unwired hub Now() = %v, want 0", got)
	}
	h.SetNow(func() time.Duration { return time.Second })
	if got := h.Now(); got != time.Second {
		t.Errorf("wired hub Now() = %v, want 1s", got)
	}
}

func TestWriteTrace(t *testing.T) {
	h, clk := newTestHub()
	h.StartCollecting()
	op := h.StartSpan(LayerMC, "op:create_file(/f0)")
	clk.Advance(time.Microsecond)
	sys := h.StartSpan(LayerKernel, "open")
	clk.Advance(8 * time.Microsecond)
	sys.End()
	op.End()
	var buf bytes.Buffer
	WriteTrace(&buf, h.StopCollecting())
	out := buf.String()
	wantLines := []string{
		"mc/op:create_file(/f0) 9µs (at 0s)",
		"  kernel/open 8µs (at 1µs)",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("trace missing %q:\n%s", w, out)
		}
	}
	if strings.Index(out, "mc/") > strings.Index(out, "kernel/") {
		t.Errorf("parent should print before child:\n%s", out)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a, _ := newTestHub()
	b, _ := newTestHub()
	a.Counter("ops").Add(10)
	b.Counter("ops").Add(5)
	a.Gauge("depth").Set(2)
	b.Gauge("depth").Set(7)
	a.Histogram("lat").Observe(2 * time.Microsecond)
	b.Histogram("lat").Observe(100 * time.Microsecond)
	b.Histogram("only-b").Observe(time.Microsecond)

	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Counters["ops"] != 15 {
		t.Errorf("merged counter = %d, want 15", m.Counters["ops"])
	}
	if m.Gauges["depth"] != 7 {
		t.Errorf("merged gauge = %d, want max 7", m.Gauges["depth"])
	}
	lat := m.Histograms["lat"]
	if lat.Count != 2 || lat.Min != 2*time.Microsecond || lat.Max != 100*time.Microsecond {
		t.Errorf("merged histogram wrong: %+v", lat)
	}
	if len(lat.Buckets) != 2 {
		t.Errorf("merged buckets = %v, want two distinct buckets", lat.Buckets)
	}
	if m.Histograms["only-b"].Count != 1 {
		t.Errorf("one-sided histogram lost: %+v", m.Histograms["only-b"])
	}
}

func TestServeMetrics(t *testing.T) {
	h, _ := newTestHub()
	h.Counter("mc.ops").Add(42)
	h.Histogram("tracker.t.checkpoint").Observe(3 * time.Microsecond)
	srv, err := ServeMetrics("127.0.0.1:0", func() any { return h.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["mc.ops"] != 42 {
		t.Errorf("served counter = %d, want 42", snap.Counters["mc.ops"])
	}
	if snap.Histograms["tracker.t.checkpoint"].Count != 1 {
		t.Errorf("served histogram missing: %+v", snap.Histograms)
	}
	// pprof must be mounted too.
	pp, err := http.Get("http://" + srv.Addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status = %d", pp.StatusCode)
	}
}

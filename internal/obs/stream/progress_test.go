package stream

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mcfs/internal/obs"
)

func frame(t *testing.T, h Health, hubs []*obs.Hub, stall *Stall) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProgress(&buf, h, hubs, stall); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestProgressLine(t *testing.T) {
	hub := obs.New()
	h := Health{Workers: []WorkerStatus{{Worker: 0, Status: WorkerRunning, Health: "healthy",
		LastBeat: 2 * time.Second, Ops: 500, Unique: 40, Revisits: 60, Depth: 3, CrashPoints: 9}}}
	want := "progress main: depth=3 states=40 revisits=60 ops=500 250.0 ops/s (virtual 2s) status=running health=healthy crash=9\n"
	if got := frame(t, h, []*obs.Hub{hub}, nil); got != want {
		t.Errorf("frame:\n got %q\nwant %q", got, want)
	}

	// A degraded visited table and compare-latency samples extend the line.
	hub.Gauge(obs.MetricVisitedFidelity).Set(2)
	hub.Gauge(obs.MetricVisitedOmissionPPM).Set(1500)
	hub.Histogram(obs.MetricCompare).Observe(10 * time.Microsecond)
	hub.Histogram(obs.MetricCompare).Observe(90 * time.Microsecond)
	got := frame(t, h, []*obs.Hub{hub}, nil)
	if !strings.Contains(got, "crash=9 fidelity=bitstate p_omit≈1.50e-03 check p50=") || !strings.Contains(got, " p99=") {
		t.Errorf("frame lacks the fidelity marker or check quantiles: %q", got)
	}
	hub.Gauge(obs.MetricVisitedFidelity).Set(1)
	if got := frame(t, h, []*obs.Hub{hub}, nil); !strings.Contains(got, "fidelity=compact") {
		t.Errorf("fidelity level 1 is not compact: %q", got)
	}
}

func TestProgressSwarmLineSumsRows(t *testing.T) {
	h := Health{Frontier: time.Second, Workers: []WorkerStatus{
		{Worker: 1, LastBeat: time.Second, Ops: 100, Unique: 10, Depth: 2, CrashPoints: 1},
		{Worker: 2, LastBeat: time.Second / 2, Ops: 50, Unique: 5, Revisits: 3, Depth: 4, CrashPoints: 2},
	}}
	got := frame(t, h, nil, nil)
	if !strings.Contains(got, "progress w1:") || !strings.Contains(got, "progress w2:") {
		t.Fatalf("per-worker lines missing:\n%s", got)
	}
	if !strings.Contains(got, "progress swarm: workers=2 depth<=4 states=15 revisits=3 ops=150 150.0 ops/s (virtual 1s) crash=3\n") {
		t.Errorf("merged line wrong:\n%s", got)
	}

	// One row needs no merged line: it would repeat the row.
	h.Workers = h.Workers[:1]
	if got := frame(t, h, nil, nil); strings.Contains(got, "progress swarm:") {
		t.Errorf("merged line for a single row:\n%s", got)
	}
}

func TestProgressStallWarnsOncePerEpisode(t *testing.T) {
	hub := obs.New()
	stall := &Stall{Ops: 100}
	var out strings.Builder
	row := WorkerStatus{Worker: 1}
	emit := func(ops, unique int64) {
		row.Ops += ops
		row.Unique += unique
		out.WriteString(frame(t, Health{Workers: []WorkerStatus{row}}, []*obs.Hub{hub}, stall))
	}
	warnings := func() int { return strings.Count(out.String(), "warning:") }

	// Ops advancing with novel states: no warning.
	emit(500, 5)
	emit(500, 1)
	if warnings() != 0 {
		t.Fatalf("spurious stall warning:\n%s", out.String())
	}
	// 150 ops without a novel state: one warning, once per episode.
	emit(150, 0)
	if !strings.Contains(out.String(), "warning: no novel state in 150 ops") {
		t.Fatalf("stall not reported:\n%s", out.String())
	}
	emit(500, 0)
	if warnings() != 1 {
		t.Fatalf("%d warnings for one stall episode", warnings())
	}
	if got := hub.Counter(obs.MetricStallWarnings).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricStallWarnings, got)
	}
	// A novel state ends the episode and re-arms the detector.
	emit(0, 1)
	emit(200, 0)
	if warnings() != 2 {
		t.Fatalf("stall detection did not re-arm: %d warnings", warnings())
	}
	// Below the threshold: silent.
	emit(0, 1)
	emit(50, 0)
	if warnings() != 2 {
		t.Fatalf("warned below threshold: %d warnings", warnings())
	}
}

func TestProgressNilHubsAndStall(t *testing.T) {
	if got := frame(t, Health{}, nil, &Stall{Ops: 1}); got != "" {
		t.Errorf("empty table rendered %q", got)
	}
	// Rows without hubs (nil entries, a short slice), a stall that fires
	// with no hub to count on, and a nil stall all render plain lines.
	h := Health{Workers: []WorkerStatus{{Worker: 1, Ops: 7}, {Worker: 3, Ops: 9}}}
	got := frame(t, h, []*obs.Hub{nil}, &Stall{Ops: 1})
	if !strings.Contains(got, "progress w1:") || !strings.Contains(got, "ops=9") || !strings.Contains(got, "warning:") {
		t.Errorf("frame over nil hubs: %q", got)
	}
	if got := frame(t, h, nil, nil); strings.Contains(got, "warning:") {
		t.Errorf("a nil stall warned: %q", got)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errFull = errors.New("device full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteNDJSONReturnsTheFirstWriteError(t *testing.T) {
	b := New()
	sub := b.Subscribe(16)
	for i := 0; i < 4; i++ {
		b.Publish(Event{Kind: KindStep, Op: "mkdir(/d0)"})
	}
	stop := make(chan struct{})
	close(stop)
	if err := WriteNDJSON(&failAfter{n: 100}, sub, stop); !errors.Is(err, errFull) {
		t.Fatalf("WriteNDJSON = %v, want %v", err, errFull)
	}

	// A writer that keeps up gets every event, one per line, and nil.
	for i := 0; i < 3; i++ {
		b.Publish(Event{Kind: KindBacktrack, Depth: i + 1})
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, sub, stop); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("wrote %d lines, want 3:\n%s", got, buf.String())
	}
}

package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestReporterAggregateLine(t *testing.T) {
	h1, clk1 := newTestHub()
	h2, _ := newTestHub()
	h1.Counter(MetricOps).Add(100)
	h1.Counter(MetricVisitedMisses).Add(10)
	h1.Gauge(MetricDepth).Set(2)
	h2.Counter(MetricOps).Add(50)
	h2.Counter(MetricVisitedMisses).Add(5)
	h2.Counter(MetricVisitedHits).Add(3)
	h2.Gauge(MetricDepth).Set(4)
	clk1.Advance(time.Second)

	var buf bytes.Buffer
	r := NewReporter(&buf, time.Hour, []Lane{{Name: "w1", Hub: h1}, {Name: "w2", Hub: h2}})
	r.SetAggregate("swarm")
	r.Emit()
	out := buf.String()
	if !strings.Contains(out, "progress w1:") || !strings.Contains(out, "progress w2:") {
		t.Fatalf("per-worker lines missing:\n%s", out)
	}
	if !strings.Contains(out, "progress swarm: workers=2 depth<=4 states=15 revisits=3 ops=150") {
		t.Errorf("merged line wrong:\n%s", out)
	}

	// A single active lane needs no merged line — it would duplicate the
	// lane's own.
	buf.Reset()
	r2 := NewReporter(&buf, time.Hour, []Lane{{Name: "main", Hub: h1}})
	r2.SetAggregate("swarm")
	r2.Emit()
	if strings.Contains(buf.String(), "progress swarm:") {
		t.Errorf("merged line emitted for a single lane:\n%s", buf.String())
	}
}

func TestReporterStallDetection(t *testing.T) {
	h, _ := newTestHub()
	var buf bytes.Buffer
	r := NewReporter(&buf, time.Hour, []Lane{{Name: "w1", Hub: h}})
	r.SetStallThreshold(100)

	// Baseline: ops advancing WITH novel states — no warning.
	h.Counter(MetricOps).Add(500)
	h.Counter(MetricVisitedMisses).Add(5)
	r.Emit()
	h.Counter(MetricOps).Add(500)
	h.Counter(MetricVisitedMisses).Inc()
	r.Emit()
	if strings.Contains(buf.String(), "warning:") {
		t.Fatalf("spurious stall warning:\n%s", buf.String())
	}

	// 150 ops with zero novel states: one warning, exactly once per
	// episode even as the stall continues.
	h.Counter(MetricOps).Add(150)
	r.Emit()
	if !strings.Contains(buf.String(), "warning: no novel state in 150 ops") {
		t.Fatalf("stall not reported:\n%s", buf.String())
	}
	h.Counter(MetricOps).Add(500)
	r.Emit()
	if got := strings.Count(buf.String(), "warning:"); got != 1 {
		t.Fatalf("%d warnings for one stall episode", got)
	}
	if got := h.Counter(MetricStallWarnings).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricStallWarnings, got)
	}

	// A novel state ends the episode and re-arms detection.
	h.Counter(MetricVisitedMisses).Inc()
	r.Emit()
	h.Counter(MetricOps).Add(200)
	r.Emit()
	if got := strings.Count(buf.String(), "warning:"); got != 2 {
		t.Fatalf("stall detection did not re-arm: %d warnings", got)
	}

	// Below threshold: silent.
	h.Counter(MetricVisitedMisses).Inc()
	r.Emit()
	h.Counter(MetricOps).Add(50)
	r.Emit()
	if got := strings.Count(buf.String(), "warning:"); got != 2 {
		t.Fatalf("warned below threshold: %d warnings", got)
	}
}

func TestReporterNilSafety(t *testing.T) {
	var r *Reporter
	r.SetAggregate("swarm")
	r.SetStallThreshold(10)
	r.Emit()
	r.Start()
	r.Stop()
}

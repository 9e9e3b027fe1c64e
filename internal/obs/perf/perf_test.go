package perf

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mcfs/internal/obs"
)

// fakeClock is a manually advanced virtual clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration      { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now += d }

func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	p.SetNow(func() time.Duration { return time.Second })
	p.SetSampleEvery(8)
	if got := p.Now(); got != 0 {
		t.Fatalf("nil Now() = %v, want 0", got)
	}
	p.Record(PhaseExecute, time.Millisecond) // must not panic
	p.Observe(100, 50, 10, 0, 3)
	snap := p.Snapshot()
	if snap.Enabled() {
		t.Fatalf("nil profiler snapshot reports phases: %+v", snap.Phases)
	}
	if len(snap.Samples) != 0 {
		t.Fatalf("nil profiler recorded samples: %d", len(snap.Samples))
	}
}

func TestPhaseAttribution(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.Now)

	for i := 0; i < 3; i++ {
		clk.Advance(2 * time.Millisecond)
		p.Record(PhaseExecute, 2*time.Millisecond)
	}
	clk.Advance(6 * time.Millisecond)
	p.Record(PhaseHash, 6*time.Millisecond)

	snap := p.Snapshot()
	if !snap.Enabled() {
		t.Fatal("snapshot not enabled after recording")
	}
	exec := snap.Phases[PhaseExecute]
	if exec.Count != 3 || exec.Sum != 6*time.Millisecond {
		t.Fatalf("execute phase = count %d sum %v, want 3 / 6ms", exec.Count, exec.Sum)
	}
	hash := snap.Phases[PhaseHash]
	if hash.Count != 1 || hash.Sum != 6*time.Millisecond {
		t.Fatalf("hash phase = count %d sum %v, want 1 / 6ms", hash.Count, hash.Sum)
	}
	if total := snap.Total(); total != 12*time.Millisecond {
		t.Fatalf("Total() = %v, want 12ms", total)
	}
	if share := snap.Share(PhaseExecute); share != 0.5 {
		t.Fatalf("Share(execute) = %v, want 0.5", share)
	}
	shares := snap.Shares()
	if shares[PhaseHash] != 0.5 {
		t.Fatalf("Shares()[hash] = %v, want 0.5", shares[PhaseHash])
	}
	if _, ok := snap.Phases[PhaseFsck]; ok {
		t.Fatal("fsck phase with no samples must be omitted from the snapshot")
	}
}

func TestUnknownPhaseIsNoOp(t *testing.T) {
	p := New(nil)
	p.Record("no-such-phase", time.Millisecond)
	if p.Snapshot().Enabled() {
		t.Fatal("unknown phase must not record")
	}
}

func TestObserveSamplesAtStride(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.Now)
	p.SetSampleEvery(10)

	for ops := int64(1); ops <= 100; ops++ {
		clk.Advance(time.Millisecond)
		p.Observe(ops, ops/2, ops/4, 0, int(ops%5))
	}
	snap := p.Snapshot()
	// First call (ops=1 >= nextAt=1) samples, then every 10 ops after:
	// ops 1, 11, 21, ..., 91.
	if len(snap.Samples) != 10 {
		t.Fatalf("got %d samples, want 10 (ops 1,11,21..91)", len(snap.Samples))
	}
	first := snap.Samples[0]
	if first.Ops != 1 {
		t.Fatalf("first sample at ops=%d, want 1", first.Ops)
	}
	for i := 1; i < len(snap.Samples); i++ {
		if snap.Samples[i].Ops <= snap.Samples[i-1].Ops {
			t.Fatalf("samples not strictly increasing in ops: %d then %d",
				snap.Samples[i-1].Ops, snap.Samples[i].Ops)
		}
	}
	last := snap.Samples[len(snap.Samples)-1]
	if last.Unique != last.Ops/2 || last.Revisits != last.Ops/4 {
		t.Fatalf("last sample counters = %+v, want unique=ops/2 revisits=ops/4", last)
	}
}

func TestObserveDecimatesWhenFull(t *testing.T) {
	p := New(nil)
	p.SetSampleEvery(1)
	for ops := int64(1); ops <= 3*maxSamples; ops++ {
		p.Observe(ops, ops, 0, 0, 1)
	}
	snap := p.Snapshot()
	if len(snap.Samples) > maxSamples {
		t.Fatalf("series exceeded cap: %d > %d", len(snap.Samples), maxSamples)
	}
	if snap.SampleEvery <= 1 {
		t.Fatalf("stride did not double under decimation: %d", snap.SampleEvery)
	}
	for i := 1; i < len(snap.Samples); i++ {
		if snap.Samples[i].Ops <= snap.Samples[i-1].Ops {
			t.Fatal("decimated series not strictly increasing")
		}
	}
}

func TestSampleRates(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.Now)
	p.SetSampleEvery(10)

	// Window 1: 10 ops, all unique, 2s elapsed, 4 crash points.
	// Window 2: 10 ops, none unique (all revisits), 2s elapsed, 10 more
	// crash points.
	p.Observe(1, 1, 0, 0, 1)
	clk.Advance(2 * time.Second)
	p.Observe(11, 11, 0, 4, 2)
	clk.Advance(2 * time.Second)
	p.Observe(21, 11, 10, 14, 3)

	rates := p.Snapshot().SampleRates()
	if len(rates) != 2 {
		t.Fatalf("got %d rate windows, want 2", len(rates))
	}
	w1, w2 := rates[0], rates[1]
	if w1.NoveltyRate != 1.0 {
		t.Fatalf("window 1 novelty = %v, want 1.0", w1.NoveltyRate)
	}
	if w2.NoveltyRate != 0 {
		t.Fatalf("window 2 novelty = %v, want 0", w2.NoveltyRate)
	}
	if w2.DuplicateRate != 1.0 {
		t.Fatalf("window 2 duplicate rate = %v, want 1.0", w2.DuplicateRate)
	}
	if w1.CrashPointsPerSec != 2.0 {
		t.Fatalf("window 1 crash points/sec = %v, want 2.0", w1.CrashPointsPerSec)
	}
	if w2.Depth != 3 {
		t.Fatalf("window 2 depth = %d, want 3", w2.Depth)
	}
	if empty := (Snapshot{}).SampleRates(); empty != nil {
		t.Fatalf("empty snapshot rates = %v, want nil", empty)
	}
}

func TestMergeCombinesPhasesDropsSamples(t *testing.T) {
	clkA, clkB := &fakeClock{}, &fakeClock{}
	a, b := New(clkA.Now), New(clkB.Now)
	a.SetSampleEvery(1)
	b.SetSampleEvery(1)

	clkA.Advance(time.Millisecond)
	a.Record(PhaseCheckpoint, time.Millisecond)
	a.Observe(1, 1, 0, 0, 1)

	clkB.Advance(3 * time.Millisecond)
	b.Record(PhaseCheckpoint, 3*time.Millisecond)
	clkB.Advance(time.Millisecond)
	b.Record(PhaseFsck, time.Millisecond)
	b.Observe(1, 1, 0, 0, 1)

	merged := a.Snapshot().Merge(b.Snapshot())
	cp := merged.Phases[PhaseCheckpoint]
	if cp.Count != 2 || cp.Sum != 4*time.Millisecond {
		t.Fatalf("merged checkpoint = count %d sum %v, want 2 / 4ms", cp.Count, cp.Sum)
	}
	if merged.Phases[PhaseFsck].Count != 1 {
		t.Fatalf("merged fsck count = %d, want 1", merged.Phases[PhaseFsck].Count)
	}
	if len(merged.Samples) != 0 {
		t.Fatalf("merged snapshot kept %d samples, want 0 (incomparable clocks)", len(merged.Samples))
	}
}

func TestWriteTable(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.Now)
	p.SetSampleEvery(10)
	clk.Advance(5 * time.Millisecond)
	p.Record(PhaseExecute, 5*time.Millisecond)
	p.Observe(1, 1, 0, 0, 1)
	clk.Advance(time.Second)
	p.Observe(11, 6, 5, 0, 2)

	var sb strings.Builder
	p.Snapshot().WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"phase", "execute", "p50", "p99", "attributed:", "telemetry:", "novelty"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fsck") {
		t.Fatalf("table lists phase with no samples:\n%s", out)
	}

	var empty strings.Builder
	(Snapshot{}).WriteTable(&empty)
	if !strings.Contains(empty.String(), "no phase work") {
		t.Fatalf("empty table = %q", empty.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	p := New(clk.Now)
	clk.Advance(time.Millisecond)
	p.Record(PhaseVerify, time.Millisecond)
	p.SetSampleEvery(1)
	p.Observe(1, 1, 0, 2, 1)

	snap := p.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Phases[PhaseVerify].Count != 1 {
		t.Fatalf("round-trip lost verify phase: %+v", back.Phases)
	}
	if len(back.Samples) != 1 || back.Samples[0].CrashPoints != 2 {
		t.Fatalf("round-trip lost samples: %+v", back.Samples)
	}
}

func TestQuantileMatchesHistogram(t *testing.T) {
	h := obs.NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Microsecond)
	}
	snap := h.Snapshot()
	p50 := snap.Quantile(0.5)
	if p50 < 30*time.Microsecond || p50 > 70*time.Microsecond {
		t.Fatalf("p50 = %v, want roughly 50µs", p50)
	}
	p99 := snap.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if p99 > snap.Max {
		t.Fatalf("p99 %v exceeds max %v", p99, snap.Max)
	}
	if got := snap.Quantile(1); got != snap.Max {
		t.Fatalf("Quantile(1) = %v, want max %v", got, snap.Max)
	}
	if got := (obs.HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	p := New(nil)
	p.SetSampleEvery(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			p.Record(PhaseExecute, time.Millisecond)
			p.Observe(int64(i+1), int64(i), 0, 0, 1)
		}
	}()
	for i := 0; i < 100; i++ {
		_ = p.Snapshot()
	}
	<-done
}

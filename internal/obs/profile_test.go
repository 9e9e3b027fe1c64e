package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilProfilerIsNoOp(t *testing.T) {
	var h *Hub
	h.SetNow(func() time.Duration { return time.Second })
	if got := h.Now(); got != 0 {
		t.Fatalf("nil Now() = %v, want 0", got)
	}
	h.Record(PhaseExecute, time.Millisecond) // must not panic
	h.Observe(100, 50, 10, 0, 3)
	prof := h.Profile()
	if prof.Enabled() {
		t.Fatalf("nil hub profile reports phases: %+v", prof.Phases)
	}
	if len(prof.Samples) != 0 {
		t.Fatalf("nil hub recorded samples: %d", len(prof.Samples))
	}
	if h.PhaseTotals() != nil {
		t.Error("nil hub PhaseTotals != nil")
	}
}

func TestPhaseAttribution(t *testing.T) {
	h, clk := newTestHub()

	for i := 0; i < 3; i++ {
		clk.Advance(2 * time.Millisecond)
		h.Record(PhaseExecute, 2*time.Millisecond)
	}
	clk.Advance(6 * time.Millisecond)
	h.Record(PhaseHash, 6*time.Millisecond)

	prof := h.Profile()
	if !prof.Enabled() {
		t.Fatal("profile not enabled after recording")
	}
	exec := prof.Phases[PhaseExecute]
	if exec.Count != 3 || exec.Sum != 6*time.Millisecond {
		t.Fatalf("execute phase = count %d sum %v, want 3 / 6ms", exec.Count, exec.Sum)
	}
	hash := prof.Phases[PhaseHash]
	if hash.Count != 1 || hash.Sum != 6*time.Millisecond {
		t.Fatalf("hash phase = count %d sum %v, want 1 / 6ms", hash.Count, hash.Sum)
	}
	if total := prof.Total(); total != 12*time.Millisecond {
		t.Fatalf("Total() = %v, want 12ms", total)
	}
	if share := prof.Share(PhaseExecute); share != 0.5 {
		t.Fatalf("Share(execute) = %v, want 0.5", share)
	}
	shares := prof.Shares()
	if shares[PhaseHash] != 0.5 {
		t.Fatalf("Shares()[hash] = %v, want 0.5", shares[PhaseHash])
	}
	if _, ok := prof.Phases[PhaseFsck]; ok {
		t.Fatal("fsck phase with no samples must be omitted from the profile")
	}
	// The phase histograms are the profile's, not the metrics snapshot's.
	if n := len(h.Snapshot().Histograms); n != 0 {
		t.Errorf("Snapshot carries %d histograms, want the phases kept out of it", n)
	}
}

func TestUnknownPhaseIsNoOp(t *testing.T) {
	h := New()
	h.Record("no-such-phase", time.Millisecond)
	if h.Profile().Enabled() {
		t.Fatal("unknown phase must not record")
	}
}

func TestObserveSamplesAtStride(t *testing.T) {
	h, clk := newTestHub()

	for ops := int64(1); ops <= 10*DefaultSampleEvery; ops++ {
		clk.Advance(time.Millisecond)
		h.Observe(ops, ops/2, ops/4, 0, int(ops%5))
	}
	prof := h.Profile()
	// First call (ops=1 >= nextAt=1) samples, then every stride ops after.
	if len(prof.Samples) != 10 {
		t.Fatalf("got %d samples, want 10 (ops 1, 1+%d, ...)", len(prof.Samples), DefaultSampleEvery)
	}
	first := prof.Samples[0]
	if first.Ops != 1 {
		t.Fatalf("first sample at ops=%d, want 1", first.Ops)
	}
	for i := 1; i < len(prof.Samples); i++ {
		if d := prof.Samples[i].Ops - prof.Samples[i-1].Ops; d != DefaultSampleEvery {
			t.Fatalf("samples %d ops apart, want the stride %d", d, DefaultSampleEvery)
		}
	}
	last := prof.Samples[len(prof.Samples)-1]
	if last.Unique != last.Ops/2 || last.Revisits != last.Ops/4 {
		t.Fatalf("last sample counters = %+v, want unique=ops/2 revisits=ops/4", last)
	}
}

func TestObserveDecimatesWhenFull(t *testing.T) {
	h := New()
	for ops := int64(1); ops <= 3*maxSamples*DefaultSampleEvery; ops++ {
		h.Observe(ops, ops, 0, 0, 1)
	}
	prof := h.Profile()
	if len(prof.Samples) > maxSamples {
		t.Fatalf("series exceeded cap: %d > %d", len(prof.Samples), maxSamples)
	}
	if prof.SampleEvery <= DefaultSampleEvery {
		t.Fatalf("stride did not double under decimation: %d", prof.SampleEvery)
	}
	for i := 1; i < len(prof.Samples); i++ {
		if prof.Samples[i].Ops <= prof.Samples[i-1].Ops {
			t.Fatal("decimated series not strictly increasing")
		}
	}
}

func TestSampleRates(t *testing.T) {
	h, clk := newTestHub()
	const n = DefaultSampleEvery

	// Window 1: n ops, all unique, 2s elapsed, 4 crash points.
	// Window 2: n ops, none unique (all revisits), 2s elapsed, 10 more
	// crash points.
	h.Observe(1, 1, 0, 0, 1)
	clk.Advance(2 * time.Second)
	h.Observe(1+n, 1+n, 0, 4, 2)
	clk.Advance(2 * time.Second)
	h.Observe(1+2*n, 1+n, n, 14, 3)

	rates := h.Profile().SampleRates()
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
	if empty := (Profile{}).SampleRates(); empty != nil {
		t.Fatalf("empty profile rates = %v, want nil", empty)
	}
}

func TestMergeCombinesPhasesDropsSamples(t *testing.T) {
	a, clkA := newTestHub()
	b, clkB := newTestHub()

	clkA.Advance(time.Millisecond)
	a.Record(PhaseCheckpoint, time.Millisecond)
	a.Observe(1, 1, 0, 0, 1)

	clkB.Advance(3 * time.Millisecond)
	b.Record(PhaseCheckpoint, 3*time.Millisecond)
	clkB.Advance(time.Millisecond)
	b.Record(PhaseFsck, time.Millisecond)
	b.Observe(1, 1, 0, 0, 1)

	merged := a.Profile().Merge(b.Profile())
	cp := merged.Phases[PhaseCheckpoint]
	if cp.Count != 2 || cp.Sum != 4*time.Millisecond {
		t.Fatalf("merged checkpoint = count %d sum %v, want 2 / 4ms", cp.Count, cp.Sum)
	}
	if merged.Phases[PhaseFsck].Count != 1 {
		t.Fatalf("merged fsck count = %d, want 1", merged.Phases[PhaseFsck].Count)
	}
	if len(merged.Samples) != 0 {
		t.Fatalf("merged profile kept %d samples, want 0 (incomparable clocks)", len(merged.Samples))
	}
}

func TestWriteTable(t *testing.T) {
	h, clk := newTestHub()
	clk.Advance(5 * time.Millisecond)
	h.Record(PhaseExecute, 5*time.Millisecond)
	h.Observe(1, 1, 0, 0, 1)
	clk.Advance(time.Second)
	h.Observe(1+DefaultSampleEvery, 6, 5, 0, 2)

	var sb strings.Builder
	h.Profile().WriteTable(&sb)
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
	(Profile{}).WriteTable(&empty)
	if !strings.Contains(empty.String(), "no phase work") {
		t.Fatalf("empty table = %q", empty.String())
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	h, clk := newTestHub()
	clk.Advance(time.Millisecond)
	h.Record(PhaseVerify, time.Millisecond)
	h.Observe(1, 1, 0, 2, 1)

	data, err := json.Marshal(h.Profile())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Profile
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
	h := newHistogram()
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
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	h := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			h.Record(PhaseExecute, time.Millisecond)
			h.Observe(int64(i+1), int64(i), 0, 0, 1)
		}
	}()
	for i := 0; i < 100; i++ {
		_ = h.Profile()
	}
	<-done
}

func TestPhaseTotalsFollowsCanonicalOrder(t *testing.T) {
	var nilHub *Hub
	if got := nilHub.PhaseTotals(); got != nil {
		t.Fatalf("nil hub PhaseTotals = %v, want nil", got)
	}

	h, clk := newTestHub()
	clk.Advance(4 * time.Millisecond)
	h.Record(PhaseFsck, 4*time.Millisecond)
	clk.Advance(time.Millisecond)
	h.Record(PhaseExecute, time.Millisecond)

	totals := h.PhaseTotals()
	names := Phases()
	if len(totals) != len(names) {
		t.Fatalf("PhaseTotals has %d entries, want one per Phases() name (%d)", len(totals), len(names))
	}
	byName := map[string]time.Duration{}
	for i, name := range names {
		byName[name] = totals[i]
	}
	if byName[PhaseFsck] != 4*time.Millisecond || byName[PhaseExecute] != time.Millisecond {
		t.Errorf("totals = %v, want fsck 4ms / execute 1ms", byName)
	}
	if byName[PhaseRemount] != 0 {
		t.Errorf("untouched remount phase = %v, want 0", byName[PhaseRemount])
	}
}

func TestDominantDelta(t *testing.T) {
	h, clk := newTestHub()

	before := h.PhaseTotals()
	clk.Advance(5 * time.Millisecond)
	h.Record(PhaseFsck, 5*time.Millisecond)
	clk.Advance(2 * time.Millisecond)
	h.Record(PhaseRemount, 2*time.Millisecond)

	if got := DominantDelta(before, h.PhaseTotals()); got != PhaseFsck {
		t.Errorf("DominantDelta = %q, want %q", got, PhaseFsck)
	}

	// No progress between the polls names no phase.
	same := h.PhaseTotals()
	if got := DominantDelta(same, same); got != "" {
		t.Errorf("DominantDelta with no delta = %q, want empty", got)
	}

	// Mismatched lengths (e.g. one side from a nil hub) are judged
	// unattributable rather than misattributed.
	if got := DominantDelta(nil, h.PhaseTotals()); got != "" {
		t.Errorf("DominantDelta(nil, totals) = %q, want empty", got)
	}
	if got := DominantDelta(h.PhaseTotals(), nil); got != "" {
		t.Errorf("DominantDelta(totals, nil) = %q, want empty", got)
	}
}

package perf

import (
	"testing"
	"time"
)

func TestPhaseTotalsFollowsCanonicalOrder(t *testing.T) {
	var p *Profiler
	if got := p.PhaseTotals(); got != nil {
		t.Fatalf("nil profiler PhaseTotals = %v, want nil", got)
	}

	clk := &fakeClock{}
	p = New(clk.Now)
	clk.Advance(4 * time.Millisecond)
	p.Record(PhaseFsck, 4*time.Millisecond)
	clk.Advance(time.Millisecond)
	p.Record(PhaseExecute, time.Millisecond)

	totals := p.PhaseTotals()
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
	clk := &fakeClock{}
	p := New(clk.Now)

	before := p.PhaseTotals()
	clk.Advance(5 * time.Millisecond)
	p.Record(PhaseFsck, 5*time.Millisecond)
	clk.Advance(2 * time.Millisecond)
	p.Record(PhaseRemount, 2*time.Millisecond)

	if got := DominantDelta(before, p.PhaseTotals()); got != PhaseFsck {
		t.Errorf("DominantDelta = %q, want %q", got, PhaseFsck)
	}

	// No progress between the polls names no phase.
	same := p.PhaseTotals()
	if got := DominantDelta(same, same); got != "" {
		t.Errorf("DominantDelta with no delta = %q, want empty", got)
	}

	// Mismatched lengths (e.g. one side from a nil profiler) are judged
	// unattributable rather than misattributed.
	if got := DominantDelta(nil, p.PhaseTotals()); got != "" {
		t.Errorf("DominantDelta(nil, totals) = %q, want empty", got)
	}
	if got := DominantDelta(p.PhaseTotals(), nil); got != "" {
		t.Errorf("DominantDelta(totals, nil) = %q, want empty", got)
	}
}

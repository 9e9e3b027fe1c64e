package mc

import (
	"testing"

	"mcfs/internal/abstraction"
	"mcfs/internal/workload"
)

// TestNilProbeAllocatesNothing: a run with no journal, hub or bus has a
// nil probe, and a step's calls on it allocate nothing. The state hash
// the step reports stays on the caller's stack: rendering it for the
// journal must not move it to the heap on the nil path as well.
func TestNilProbeAllocatesNothing(t *testing.T) {
	var p *probe
	var h abstraction.State
	for i := range h {
		h[i] = byte(i)
	}
	op := workload.Op{Kind: workload.OpMkdir, Path: "/d0"}
	var res Result
	step := func() {
		p.begin(op, 1)
		p.executed(&res, 1, nil)
		p.end()
		p.visited(1, op, h, true, true)
		p.backtracked(1)
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("a step's calls on the nil probe allocate %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.root(nil, h, true) }); n != 0 {
		t.Errorf("root on the nil probe allocates %.0f times, want 0", n)
	}
}

package mc

import (
	"bytes"
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

// TestWarmOpBuildsNoPath: the engine derives an op's operands under a
// mount point, a write's bytes and its heatmap row label on the op's
// first run; running any pool op again at any mount point it ran at
// builds no path or buffer and renders nothing. What it keeps is what
// workload.At, workload.Fill and Op.String build, and the writes of one
// size and byte share one buffer.
func TestWarmOpBuildsNoPath(t *testing.T) {
	e := &engine{}
	ops := workload.DefaultPool().Enumerate()
	mounts := []string{"/mnt/t0", "/mnt/t1", "/mnt/crash"}
	for _, op := range ops {
		m := e.memoOf(op)
		for _, mount := range mounts {
			if got, want := m.paths(mount, op), workload.At(mount, op); got != want {
				t.Fatalf("%v at %s: paths %+v, want %+v", op, mount, got, want)
			}
		}
		if got := m.rowLabel(op); got != op.String() {
			t.Fatalf("%v: row label %q", op, got)
		}
		if !bytes.Equal(m.data, workload.Fill(op)) || (m.data == nil) != (op.Kind != workload.OpWriteFile) {
			t.Fatalf("%v: data %d bytes, want workload.Fill's", op, len(m.data))
		}
	}
	type fill struct {
		size int64
		b    byte
	}
	shared := map[fill]*byte{}
	for _, op := range ops {
		if d := e.memoOf(op).data; len(d) > 0 {
			k := fill{op.Size, op.Byte}
			if p, ok := shared[k]; ok && p != &d[0] {
				t.Errorf("two writes of %d bytes of %#x do not share a buffer", op.Size, op.Byte)
			}
			shared[k] = &d[0]
		}
	}
	if len(e.fills) != len(shared) {
		t.Errorf("the engine keeps %d write buffers for %d (size, byte) pairs", len(e.fills), len(shared))
	}
	rerun := func() {
		for _, op := range ops {
			m := e.memoOf(op)
			for _, mount := range mounts {
				m.paths(mount, op)
			}
			m.rowLabel(op)
		}
	}
	if n := testing.AllocsPerRun(20, rerun); n != 0 {
		t.Errorf("re-running %d warm ops at %d mount points allocates %.0f times, want 0", len(ops), len(mounts), n)
	}
	if len(e.ops) != len(ops) {
		t.Errorf("the engine keeps %d op memos for a pool of %d ops", len(e.ops), len(ops))
	}
}

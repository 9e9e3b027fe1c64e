package mc

import (
	"testing"

	"mcfs/internal/allocs"
	"mcfs/internal/workload"
)

// CollideCrashKeys gives every crash point's memo key the same crc until
// the test ends, so only the byte compare tells two streams apart.
func CollideCrashKeys(t testing.TB) {
	t.Helper()
	setCrashSum(t, func([]byte) uint32 { return 0 })
}

// DisableCrashMemo gives every crash point's memo key a crc no other key
// has until the test ends, so every point misses and inspect judges it.
// Single-engine runs only: the keys are counted without a lock.
func DisableCrashMemo(t testing.TB) {
	t.Helper()
	var n uint32
	setCrashSum(t, func([]byte) uint32 { n++; return n })
}

func setCrashSum(t testing.TB, sum func([]byte) uint32) {
	old := crashSum
	crashSum = sum
	t.Cleanup(func() { crashSum = old })
}

// StepMallocs builds an engine on cfg, runs setup through its step, and
// returns the heap objects that runs warm steps of op allocate
// (allocs.Count). A step that fails or finds a discrepancy fails t.
func StepMallocs(t testing.TB, cfg Config, setup []workload.Op, op workload.Op, runs int) uint64 {
	t.Helper()
	e := newEngine(cfg)
	step := func(op workload.Op) {
		if _, err := e.step(op); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if e.res.Bug != nil {
			t.Fatalf("%s: %v", op, e.res.Bug.Discrepancy)
		}
	}
	for _, o := range setup {
		step(o)
	}
	return allocs.Count(runs, func() { step(op) })
}

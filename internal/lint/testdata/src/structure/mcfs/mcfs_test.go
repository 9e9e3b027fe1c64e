package mcfs

import (
	"testing"

	"mcfs/internal/bench"    // want "import of mcfs/internal/bench: BENCH_mc\.json is a golden"
	"mcfs/internal/obs/perf" // want "import of mcfs/internal/obs/perf: an engine has one"
)

// A test file is read by syntax: declarations, strings and imports.
func TestGate(t *testing.T) {
	var p perf.Profiler
	if !bench.Compare(1, 1) {
		t.Fatal(p)
	}
}

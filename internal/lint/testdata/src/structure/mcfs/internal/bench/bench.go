// Package bench is the deleted tolerance gate, back at its old path.
package bench // want "package mcfs/internal/bench: BENCH_mc\.json is a golden"

const DefaultTolerance = 0.1 // want "DefaultTolerance: BENCH_mc\.json is a golden"

// Compare is the old gate's entry point.
func Compare(a, b float64) bool { return a-b < DefaultTolerance }

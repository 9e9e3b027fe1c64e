// Package perf is the deleted second phase profiler, back at its old path.
package perf // want "package mcfs/internal/obs/perf: an engine has one"

// Profiler is the deleted profiler type.
type Profiler struct{}

// Package mcfs brings back settings nothing varies and a second phase
// profiler on the session.
package mcfs

// Options carries a setting nothing varies.
type Options struct {
	Parallelism int // want "Parallelism: a deleted setting or"
}

// Calibration is Figure 3's deleted calibration spec.
type Calibration struct{} // want "Calibration: a deleted setting or"

// Session is the facade.
type Session struct{ opts Options }

// Perf is the deleted second profiler accessor.
func (s *Session) Perf() int { return s.opts.Parallelism } // want "Perf: an engine has one"

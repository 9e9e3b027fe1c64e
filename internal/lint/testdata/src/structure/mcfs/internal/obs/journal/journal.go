// Package journal stands in for the flight recorder.
package journal

// Recorder is one engine's journal.
type Recorder struct{}

// Enabled reports whether records are kept.
func (r *Recorder) Enabled() bool { return r != nil }

// Package simclock provides the virtual clock that every simulated
// component in MCFS charges time against.
//
// The paper reports model-checking rates (operations per second of real
// time) measured on a 16-core VM driving real kernels and devices. This
// reproduction replaces real time with a deterministic virtual clock:
// simulated devices charge seek and transfer latencies, trackers charge
// snapshot latencies, and the explorer charges per-operation CPU costs.
// Benchmarks then compute ops/s from virtual elapsed time, so every run
// reproduces the paper's *relative* speeds exactly and in milliseconds of
// wall-clock time.
package simclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock. It is safe for
// concurrent use; swarm workers in the explorer share one clock. Every
// device read, program and syscall charge goes through Advance, so the
// clock is one atomic word rather than a lock.
//
// The zero value is a valid clock at time zero.
type Clock struct {
	now atomic.Int64 // nanoseconds, a time.Duration
}

// New returns a clock starting at virtual time zero.
func New() *Clock { return &Clock{} }

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored: simulated costs are never refunds.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d <= 0 {
		return c.Now()
	}
	return time.Duration(c.now.Add(int64(d)))
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Reset rewinds the clock to zero. Only tests and benchmark harnesses
// call this, between independent runs.
func (c *Clock) Reset() { c.now.Store(0) }

// Stopwatch measures a span of virtual time on a clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// Watch starts a stopwatch at the clock's current time.
func Watch(c *Clock) Stopwatch { return Stopwatch{clock: c, start: c.Now()} }

// Elapsed returns the virtual time accumulated since the stopwatch began.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }

// Rate converts an event count over a virtual duration into events per
// virtual second. A zero or negative duration yields 0 rather than Inf so
// callers can print rates unconditionally.
func Rate(events int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(events) / elapsed.Seconds()
}

// FormatRate renders an events/second value the way the paper's Figure 2
// labels do, e.g. "228.6 ops/s".
func FormatRate(rate float64) string {
	return fmt.Sprintf("%.1f ops/s", rate)
}

// Package obs stands in for the hub. It brings back a span ring, a wall
// clock read, a lint suppression and hub options.
package obs

import "time"

// Hub is the one observability object.
type Hub struct{ spans []int }

// Options are the deleted hub options.
type Options struct{} // want "obs\.Options: a hub takes no"

const TraceCapacity = 64 // want "TraceCapacity in internal/obs: the hub keeps no"

// Record charges d to phase.
func (h *Hub) Record(phase string, d time.Duration) {}

// Now reads the wall clock.
func (h *Hub) Now() time.Time {
	//lint:ignore walltime the hub has no virtual clock yet // want "lint:ignore in internal/obs: the hub keeps no"
	return time.Now() // want "time\.Now in internal/obs: the hub keeps no"
}

// Package fault stands in for the fault plane: every persisted window
// write is a crash point, and a dropped log's bytes are a spare the next
// collection takes back. It brings back the arming API, and pools the
// log's chunks.
package fault

import "sync"

// chunks keeps the touch log's chunks through a collection: a mutant.
var chunks = sync.Pool{New: func() any { return new([4096]byte) }} // want "sync\.Pool: a pool's victim cache keeps"

// Plane logs window writes.
type Plane struct{ armed bool }

// ArmCrash is the deleted arming call.
func (p *Plane) ArmCrash() { p.armed = true } // want "ArmCrash: every persisted window write"

// Armed is the deleted arming query.
func (p *Plane) Armed() bool { return p.armed } // want "Armed: every persisted window write"

// DisarmPending is the deleted disarming call. A structure finding
// cannot be waived line by line, so the directive above it suppresses
// nothing and is itself reported.
//
//lint:ignore structure the disarming call is back on purpose // want "unused lint:ignore directive: no structure finding on this line"
func (p *Plane) DisarmPending() { p.armed = false } // want "DisarmPending: every persisted window write"

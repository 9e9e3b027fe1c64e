// Package spare keeps a buffer its owner has let go of until the next
// garbage collection, so that the owner's next use can take it back
// instead of allocating it again.
//
// A Slot holds what it is given only weakly: between collections the
// owner reuses its last buffers, and a collection reclaims them, so a
// heap measured after runtime.GC holds nothing a Slot was given. That is
// the difference from sync.Pool, whose victim cache keeps its items
// through one collection. A Slot is not safe for concurrent use: its
// owner's lock guards it.
package spare

import "weak"

// Slot holds one value of type T that its owner has let go of. The value
// lives in a box that is only weakly reachable while it is full; the
// owner holds the emptied box strongly, so a Put after a Take reuses it
// and makes no weak handle. The zero Slot is empty.
type Slot[T any] struct {
	held *box[T]              // the box Take emptied, kept for the next Put
	weak weak.Pointer[box[T]] // the box, full or not, unless a collection took it
}

type box[T any] struct {
	v    T
	full bool
}

// Put hands v to the slot, replacing what it held. Once Put returns,
// nothing but the slot's weak pointer reaches v.
func (s *Slot[T]) Put(v T) {
	b := s.held
	if b == nil {
		b = s.weak.Value()
	}
	if b == nil {
		b = new(box[T])
		s.weak = weak.Make(b)
	}
	b.v, b.full = v, true
	s.held = nil
}

// Take returns the value last Put and empties the slot; ok is false when
// the slot is empty, or a collection has reclaimed the value since.
func (s *Slot[T]) Take() (v T, ok bool) {
	b := s.weak.Value()
	if b == nil || !b.full {
		return v, false
	}
	v, ok = b.v, true
	var zero T
	b.v, b.full = zero, false
	s.held = b
	return v, ok
}

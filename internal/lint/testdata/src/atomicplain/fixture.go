// Package atomicplain seeds the typed-atomics rule: every use of a
// sync/atomic function is a finding, because the field it reaches can
// still be read or written plainly elsewhere and race with it. The
// methods of the typed atomics are the only allowed access.
package atomicplain

import "sync/atomic"

type Counter struct {
	hits  int64    // reached through atomic.AddInt64: the call is flagged
	words []uint64 // reached element-wise through atomic functions
	typed atomic.Int64
	next  atomic.Pointer[Counter]
	cold  int64 // never touched atomically; plain access is fine
}

func (c *Counter) Hit() {
	atomic.AddInt64(&c.hits, 1) // want "sync/atomic.AddInt64: use a typed atomic"
}

func (c *Counter) Test(i int) bool {
	return atomic.LoadUint64(&c.words[i/64])&(1<<(i%64)) != 0 // want "sync/atomic.LoadUint64: use a typed atomic"
}

func (c *Counter) Set(i int) {
	atomic.OrUint64(&c.words[i/64], 1<<(i%64)) // want "sync/atomic.OrUint64: use a typed atomic"
}

// add takes the function as a value: a use, even without a call.
var add = atomic.AddInt64 // want "sync/atomic.AddInt64: use a typed atomic"

// Snapshot reads the counter plainly: the classic Histogram.Sum hazard,
// ruled out by rejecting Hit's call rather than this read.
func (c *Counter) Snapshot() int64 {
	return c.hits
}

// Typed is the convention: methods only, so nothing can read the value
// plainly.
func (c *Counter) Typed() int64 {
	c.typed.Add(1)
	c.next.Store(c)
	return c.typed.Load()
}

// load is a method expression: a method, so allowed.
var load = (*atomic.Int64).Load

func (c *Counter) Cold() int64 {
	c.cold++
	return c.cold
}

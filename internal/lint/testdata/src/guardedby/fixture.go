// Package guardedby seeds every way the `// guarded by <field>`
// convention can be violated: access with no lock, write under the
// read lock, the wrong instance's lock, an early return that breaks
// the region around an access, and an annotation naming a
// non-mutex guard. Clean shapes — defer-unlock, RLock reads,
// constructor initialization of a fresh value, helpers whose callers
// all hold the lock — must stay silent.
package guardedby

import "sync"

type Counter struct {
	mu sync.RWMutex
	// count is the flow-sensitive analyzer's bread and butter.
	count int // guarded by mu
	buf   []byte
	// bad's annotation names a field that is not a mutex.
	bad int // guarded by buf // want "annotation names \"buf\""
}

// Plain has no lock at all.
func (c *Counter) Plain() int {
	return c.count // want "read Counter.count \(guarded by mu\) without holding c.mu"
}

// WriteUnderRLock holds the wrong mode.
func (c *Counter) WriteUnderRLock() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.count++ // want "write to Counter.count \(guarded by mu\) while holding only the read lock"
}

// ReadUnderRLock is the intended read path.
func (c *Counter) ReadUnderRLock() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.count
}

// WriteUnderLock is the intended write path (defer-unlock idiom).
func (c *Counter) WriteUnderLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
}

// EarlyDrop unlocks on the fast path, then touches the field anyway.
// The early Unlock and return break the region, so they are the
// findings.
func (c *Counter) EarlyDrop(fast bool) {
	c.mu.Lock()
	if fast {
		c.mu.Unlock() // want "unlocking c.mu, which is not held by a region of this block"
		c.count = 0
		return // want "return leaves the c.mu region \(locked at line 51\)"
	}
	c.count++
	c.mu.Unlock()
}

// WrongInstance holds the receiver's lock but touches the other's
// field — lock identity is per-instance.
func (c *Counter) WrongInstance(other *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	other.count++ // want "write to Counter.count \(guarded by mu\) without holding other.mu"
}

// MergeOK locks the instance it reads.
func (c *Counter) MergeOK(other *Counter) {
	other.mu.RLock()
	n := other.count
	other.mu.RUnlock()
	c.mu.Lock()
	c.count += n
	c.mu.Unlock()
}

// bump relies on its callers: every call site holds c.mu, so the
// access is covered on the mapped receiver.
func (c *Counter) bump() {
	c.count++
}

func (c *Counter) BumpLocked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
}

func (c *Counter) BumpTwice() {
	c.mu.Lock()
	c.bump()
	c.bump()
	c.mu.Unlock()
}

// NewCounter initializes a fresh, not-yet-shared value: exempt.
func NewCounter(start int) *Counter {
	c := &Counter{}
	c.count = start
	return c
}

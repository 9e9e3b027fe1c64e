// Package lockbalance seeds the missing-Unlock bug classes: an early
// return or goto that skips the release, a closure that acquires and
// never releases, and an unlock with no matching lock in its block.
// Region shapes — defer-based release, panic paths, loop-body
// lock/unlock, deferred closure release — must stay clean.
package lockbalance

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

// EarlyReturn skips the Unlock on the b path — the bug class this
// analyzer exists for.
func (s *S) EarlyReturn(b bool) {
	s.mu.Lock()
	if b {
		return // want "return leaves the s.mu region \(locked at line 18\)"
	}
	s.n++
	s.mu.Unlock()
}

// DeferOK releases via defer on every path.
func (s *S) DeferOK(b bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b {
		return
	}
	s.n++
}

// PanicOK: panicking paths run deferred unlocks during the unwind and
// are exempt even without a defer — the lock dies with the goroutine.
func (s *S) PanicOK(b bool) {
	s.mu.Lock()
	if b {
		panic("giving up")
	}
	s.mu.Unlock()
}

// LoopOK locks and unlocks per iteration.
func (s *S) LoopOK(xs []int) {
	for range xs {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}

// DeferClosureOK releases through a deferred closure.
func (s *S) DeferClosureOK() {
	s.mu.Lock()
	defer func() {
		s.n = 0
		s.mu.Unlock()
	}()
	s.n++
}

// LeakyClosure acquires and returns holding.
func (s *S) LeakyClosure() func() {
	return func() {
		s.mu.Lock() // want "s.mu.Lock\(\) opens no region"
		s.n++
	}
}

// ReleaseOnlyClosure unlocks a captured lock whose Lock is the
// caller's: no region of its block holds it.
func (s *S) ReleaseOnlyClosure() func() {
	return func() {
		s.mu.Unlock() // want "unlocking s.mu, which is not held"
	}
}

// DoubleUnlock releases a lock it never took.
func (s *S) DoubleUnlock() {
	s.mu.Unlock() // want "unlocking s.mu, which is not held"
}

// handoff releases a lock every caller holds at entry: asymmetric lock
// handling is a finding.
func (s *S) handoff() {
	s.n++
	s.mu.Unlock() // want "unlocking s.mu, which is not held"
	return
}

// The callers are flagged too: a Lock released in another function
// opens no region, so the pair of findings points at both halves of the
// asymmetric pattern.
func (s *S) UseHandoff() {
	s.mu.Lock() // want "s.mu.Lock\(\) opens no region"
	s.handoff()
}

func (s *S) UseHandoffAgain() {
	s.mu.Lock() // want "s.mu.Lock\(\) opens no region"
	s.handoff()
}

// GotoOut jumps past its Unlock: the lock stays held after the label.
func (s *S) GotoOut(b bool) {
	s.mu.Lock()
	if b {
		goto out // want "goto leaves the s.mu region \(locked at line 109\)"
	}
	s.n++
	s.mu.Unlock()
out:
	s.n--
}

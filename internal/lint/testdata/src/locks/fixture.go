// Package locks seeds the region shapes the three older fixtures do
// not: a break or continue out of a region (a loop or switch inside the
// region keeps its own), a labeled break, a go body that runs under no
// region, a mode mismatch, and guarded helpers called through helpers
// or recursively.
package locks

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int // guarded by mu
	m  int // guarded by rw
	ch chan int
}

func (s *S) BreakOut(xs []int) {
	for range xs {
		s.mu.Lock()
		if s.n > 0 {
			break // want "break leaves the s.mu region"
		}
		s.mu.Unlock()
	}
}

func (s *S) ContinueOut(xs []int) {
	for range xs {
		s.mu.Lock()
		if s.n > 0 {
			continue // want "continue leaves the s.mu region"
		}
		s.mu.Unlock()
	}
}

// SwitchContinue: a switch keeps its break, not its loop's continue.
func (s *S) SwitchContinue(xs []int) {
	for range xs {
		s.mu.Lock()
		switch {
		case s.n > 0:
			continue // want "continue leaves the s.mu region"
		}
		s.mu.Unlock()
	}
}

// InnerBranchesOK break and continue loops, switches and selects that
// lie inside the region.
func (s *S) InnerBranchesOK(xs []int) {
	s.mu.Lock()
	for range xs {
		if s.n > 0 {
			break
		}
		continue
	}
	switch {
	case s.n > 1:
		break
	}
	select {
	case <-s.ch:
		break
	default:
	}
	s.mu.Unlock()
}

func (s *S) Labeled(xs []int) {
outer:
	for range xs {
		s.mu.Lock()
		for range xs {
			break outer // want "break leaves the s.mu region"
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
inner:
	for range xs {
		for range xs {
			continue inner
		}
	}
	s.mu.Unlock()
}

// ClosureReturnOK: a func literal's return leaves the literal, not the
// region.
func (s *S) ClosureReturnOK() {
	s.mu.Lock()
	f := func() int { return 1 }
	s.n = f()
	s.mu.Unlock()
}

// GoBody: a func literal runs under the regions around it, a go body
// under none.
func (s *S) GoBody() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.n++ // want "write to S.n \(guarded by mu\) without holding s.mu"
	}()
	func() { s.n++ }()
}

func (s *S) ReadLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.m = 2 // want "write to S.m \(guarded by rw\) while holding only the read lock s.rw"
	return s.m
}

// Mismatch: an Unlock closes a Lock, an RUnlock an RLock.
func (s *S) Mismatch() {
	s.rw.RLock()  // want "s.rw.RLock\(\) opens no region"
	s.rw.Unlock() // want "unlocking s.rw, which is not held"
}

// helper is called only from viaHelper, whose every call site holds
// s.mu: the fixpoint carries the lock through both.
func (s *S) helper() { s.n++ }

func (s *S) viaHelper() { s.helper() }

func (s *S) Chain() {
	s.mu.Lock()
	s.viaHelper()
	s.mu.Unlock()
}

// rec's own call site is not in a region: the fixpoint starts from no
// locks held, so a recursive helper is not covered.
func (s *S) rec(k int) {
	s.n++ // want "write to S.n \(guarded by mu\) without holding s.mu"
	if k > 0 {
		s.rec(k - 1)
	}
}

func (s *S) Rec() {
	s.mu.Lock()
	s.rec(3)
	s.mu.Unlock()
}

// Package checker stands in for the state checker. It brings back a
// check that walks in fresh memory.
package checker

import "mcfs/internal/abstraction"

// Checker judges and hashes the targets' states.
type Checker struct {
	memo *abstraction.Memo
	recs []string
}

// StateHash walks every target once.
func (c *Checker) StateHash() (uint64, error) { return abstraction.Hash(), nil } // want "mcfs/internal/abstraction\.Hash: a state check walks in its owner's memory"

// CheckAndHash walks into its kept buffer.
func (c *Checker) CheckAndHash() {
	c.recs = c.memo.Snapshot(c.recs[:0])
}

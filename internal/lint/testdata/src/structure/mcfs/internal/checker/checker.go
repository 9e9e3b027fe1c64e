// Package checker stands in for the state checker.
package checker

// Checker judges and hashes the targets' states.
type Checker struct{}

// StateHash walks every target once.
func (c *Checker) StateHash() (uint64, error) { return 0, nil }

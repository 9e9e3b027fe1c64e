// Package mc stands in for the explore loop. It brings back a plane
// outside the probe, guards and timers beside it, and second walks.
package mc

import (
	"mcfs/internal/abstraction"
	"mcfs/internal/checker"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
)

type config struct {
	Checker *checker.Checker
	Journal *journal.Recorder
	Obs     *obs.Hub
}

type engine struct {
	cfg  config
	p    *probe
	eobs *obs.Hub // want "eobs: instrumentation outside the probe"
}

// explore hashes the initial state: its one StateHash call is allowed.
func (e *engine) explore() error {
	if _, err := e.cfg.Checker.StateHash(); err != nil {
		return err
	}
	go e.step()                         // a goroutine outside the op path is not this table's business
	_, err := e.cfg.Checker.StateHash() // want "\(\*mcfs/internal/checker\.Checker\)\.StateHash: explore hashes the initial"
	return err
}

func (e *engine) step() {
	if e.cfg.Journal.Enabled() { // want "\(\*mcfs/internal/obs/journal\.Recorder\)\.Enabled: instrumentation outside the probe"
		e.cfg.Obs.Record("execute", 0) // want "\(\*mcfs/internal/obs\.Hub\)\.Record: instrumentation outside the probe"
	}
	e.p.executed()
	// A method value walks the state as surely as a call.
	walk := e.cfg.Checker.StateHash // want "\(\*mcfs/internal/checker\.Checker\)\.StateHash: only explore hashes a"
	_, _ = walk()
}

// reprobe is the crash oracle's reference flow: it walks fresh.
func (e *engine) reprobe() uint64 {
	hash := func() uint64 { return abstraction.Hash() }
	return hash() + uint64(len(abstraction.Snapshot()))
}

// metaHash walks fresh outside reprobe: a mutant.
func (e *engine) metaHash() []string {
	return abstraction.Snapshot() // want "mcfs/internal/abstraction\.Snapshot: a state check walks in its owner's memory"
}

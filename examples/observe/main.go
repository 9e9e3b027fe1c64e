// Observe: attach the observability layer to an exploration — live
// metrics, latency histograms, and the cross-layer span trace of a bug
// trail.
//
// The example seeds VeriFS2's write-hole bug, runs a short exploration
// with a hub attached, and then shows the three views the obs package
// offers:
//
//  1. a Spin-style status line (the -progress flag of cmd/mcfs prints
//     these periodically),
//  2. the metrics snapshot as JSON — counters for every layer (engine
//     ops, kernel syscalls, FUSE requests) and latency histograms for
//     checkpoint/restore and state comparison, all in virtual time,
//  3. the bug trail's span trace: for every operation of the trail, the
//     tree of tracker checkpoints, kernel syscalls, and FUSE requests it
//     executed, with virtual timings.
//
// Run with:
//
//	go run ./examples/observe
package main

import (
	"fmt"
	"log"
	"os"

	"mcfs"
	"mcfs/internal/obs"
)

func main() {
	hub := obs.New()
	session, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
		Obs:      hub, // a nil hub disables all instrumentation at zero cost
	})
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	res := session.Run()
	if res.Err != nil {
		log.Fatal(res.Err)
	}

	// 1. The Spin-style status line, from the hub's standard engine
	// instruments (ops, unique states, revisits, DFS depth, virtual
	// ops/s).
	fmt.Println(obs.StatusLine("main", hub))

	// 2. The full metrics snapshot. Every latency is deterministic
	// virtual time from the session's clock, so two runs of this example
	// print identical numbers.
	fmt.Println("\nmetrics snapshot:")
	if err := hub.Snapshot().WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 3. The cross-layer trace of the bug trail: one root span per trail
	// operation, with the tracker checkpoints and kernel syscalls (and
	// their FUSE requests) it executed as children.
	if res.Bug == nil {
		log.Fatal("expected the seeded write-hole bug to be found")
	}
	fmt.Printf("\nfound: %v\n", res.Bug.Discrepancy)
	fmt.Println("\ncross-layer trace of the trail:")
	obs.WriteTrace(os.Stdout, res.Bug.TrailSpans)
}

// Swarm: run several diversified model-checking workers as one
// coordinated parallel search — Spin's swarm verification (§2, §7).
//
// Each worker gets its own kernel, file system instances, and a distinct
// search-order seed, so the workers explore different corners of the
// state space. The coordination layer adds three things on top of plain
// diversification:
//
//   - Cancellation: the first worker to find the seeded bug cancels the
//     rest, so peers stop within one operation instead of burning their
//     whole budget.
//   - A shared visited table: with ShareVisited, workers prune states
//     their peers already expanded, so the swarm covers more distinct
//     states for the same total budget.
//   - A merged result: summed operations, globally-distinct state
//     counts, merged coverage, and the first bug with its trail.
//
// The run is watched by a swarm-aware progress reporter: one lane per
// worker plus a merged "swarm" line summing every worker's counters,
// with stall detection armed to warn if the whole swarm stops finding
// globally-novel states.
//
// Run with:
//
//	go run ./examples/swarm
package main

import (
	"fmt"
	"log"
	"os"

	"mcfs"
	"mcfs/internal/obs"
)

func main() {
	const workers = 6

	// One instrument hub per worker: each becomes a progress lane.
	hubs := make([]*obs.Hub, workers)
	lanes := make([]obs.Lane, workers)
	for i := range hubs {
		hubs[i] = obs.New()
		lanes[i] = obs.Lane{Name: fmt.Sprintf("w%d", i+1), Hub: hubs[i]}
	}
	reporter := obs.NewReporter(os.Stderr, 0, lanes)
	reporter.SetAggregate("swarm")
	reporter.SetStallThreshold(10000)

	sr, err := mcfs.SwarmRun(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugSizeUpdateOnOverflow}},
		},
		MaxDepth:     3,
		MaxOps:       1500, // deliberately small per-worker budget
		Workers:      workers,
		ShareVisited: true,
	}, func(worker int, o *mcfs.Options) error {
		o.Obs = hubs[worker-1]
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The run is short, so emit the progress snapshot once at the end:
	// six per-worker lines plus the merged swarm line (a live run would
	// call reporter.Start() with a wall-clock interval instead).
	reporter.Emit()
	if sr.Err != nil {
		log.Fatalf("worker %d: %v", sr.ErrWorker+1, sr.Err)
	}

	for i, r := range sr.Workers {
		status := "no discrepancy in budget"
		switch {
		case r.Bug != nil:
			status = fmt.Sprintf("FOUND after %d ops (trail length %d)",
				r.Bug.OpsExecuted, len(r.Bug.Trail))
		case r.Canceled:
			status = "canceled (a peer found the bug first)"
		}
		fmt.Printf("worker %d (seed %d): %d ops, %d unique states — %s\n",
			i+1, i+1, r.Ops, r.UniqueStates, status)
	}

	fmt.Printf("\nswarm total: %d ops, %d distinct states (%d duplicated across workers)\n",
		sr.Ops, sr.GlobalUniqueStates, sr.DuplicateStates)
	if sr.Bug == nil {
		fmt.Println("no worker found the seeded bug in budget " +
			"(increase MaxOps or add workers — diversification is probabilistic)")
		return
	}
	fmt.Printf("first bug found by worker %d; trail:\n", sr.BugWorker+1)
	for i, op := range sr.Bug.Trail {
		fmt.Printf("%3d. %s\n", i+1, op)
	}
}

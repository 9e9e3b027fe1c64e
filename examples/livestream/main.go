// Livestream: watch an exploration as it happens through the typed
// event bus — engine steps, crash-probe verdicts, worker heartbeats —
// and render the crash-verdict heatmap the run leaves behind.
//
// The example seeds ext4's journal-commit-first bug, attaches a stream
// bus with one subscriber, and runs a shallow crash exploration. While
// cmd/mcfs turns the same feed into an NDJSON sink (-events), live
// progress frames (-progress), and HTTP endpoints (/events, /workers),
// here we drain the subscriber directly and show:
//
//  1. the first few raw events, exactly as the NDJSON sink would record
//     them — every timestamp is virtual, so two runs print identical
//     streams,
//  2. a tally of event kinds and crash verdicts,
//  3. the per-worker health table (/workers serves this as JSON) as
//     the final -progress frame renders it,
//  4. the crash-verdict heatmap: rows are operations, columns are
//     crash-window write indexes, and a B cell marks a write whose
//     survivors fsck could not save.
//
// Run with:
//
//	go run ./examples/livestream
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"mcfs"
	"mcfs/internal/obs/stream"
)

func main() {
	bus := mcfs.NewStream()
	// A generous ring so this example loses nothing; slow consumers with
	// small rings drop oldest-first and the engine never blocks.
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()

	session, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2"},
			{Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}},
		},
		MaxDepth:         1,
		MaxOps:           5000,
		CrashExploration: true,
		Stream:           bus, // a nil bus disables all event emission at zero cost
	})
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	res := session.Run()
	if res.Err != nil {
		log.Fatal(res.Err)
	}

	events := sub.Drain()

	// 1. The head of the stream, as NDJSON. Sequence numbers and virtual
	// timestamps make the feed byte-deterministic run to run.
	fmt.Println("first events on the wire:")
	enc := json.NewEncoder(os.Stdout)
	for _, ev := range events[:min(6, len(events))] {
		if err := enc.Encode(ev); err != nil {
			log.Fatal(err)
		}
	}

	// 2. What the run emitted, by kind and by crash verdict.
	kinds := map[stream.Kind]int{}
	verdicts := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Kind == stream.KindCrashVerdict {
			verdicts[ev.Verdict]++
		}
	}
	fmt.Printf("\n%d events (dropped %d): %d steps, %d crash verdicts, %d heartbeats\n",
		len(events), sub.Dropped(), kinds[stream.KindStep],
		kinds[stream.KindCrashVerdict], kinds[stream.KindWorkerHeartbeat])
	fmt.Printf("verdicts: %d b0, %d b1, %d fsck-repaired, %d bug\n",
		verdicts[stream.VerdictB0], verdicts[stream.VerdictB1],
		verdicts[stream.VerdictFsckRepaired], verdicts[stream.VerdictBug])

	// 3. Worker health, the /workers document, as a progress frame. A
	// single session is worker 0 ("main"); swarm workers are 1..N and go
	// unhealthy when their heartbeats fall behind the frontier.
	fmt.Println("\nworker health:")
	if err := stream.WriteProgress(os.Stdout, bus.Workers(), nil, nil); err != nil {
		log.Fatal(err)
	}

	// 4. The crash-verdict heatmap (cmd/mcfs writes the JSON form with
	// -crash-heatmap). The seeded commit-first bug shows up as B cells:
	// crash points where replaying the journal corrupts the image in a
	// way fsck repair cannot mask.
	if res.CrashHeatmap == nil || res.CrashHeatmap.Bugs() == 0 {
		log.Fatal("expected the seeded commit-first bug in the heatmap")
	}
	fmt.Println("\ncrash-verdict heatmap:")
	res.CrashHeatmap.Snapshot().WriteTable(os.Stdout)
}

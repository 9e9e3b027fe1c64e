// Flight recorder: journal a model-checking run, dump the bug as a
// repro bundle, replay it deterministically, and delta-debug the trail
// to a minimal reproduction — the full find→record→replay→shrink loop.
//
// Spin leaves a .trail file behind every verification failure; MCFS
// leaves a bundle directory: the run's configuration, the bug and its
// trail, the flight-recorder journal of every nondeterministic engine
// choice, and (after shrinking) a locally-minimal trail. Anyone with
// the bundle can re-execute the bug on fresh file-system instances —
// no access to the original run required.
//
// Run with:
//
//	go run ./examples/flightrecorder
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mcfs"
	"mcfs/internal/obs/journal"
)

func main() {
	dir, err := os.MkdirTemp("", "mcfs-flightrecorder-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "run.jsonl")
	bundleDir := filepath.Join(dir, "bundle")

	// 1. Explore with the flight recorder on. Every op, errno vector,
	// state hash, and backtrack goes to the journal.
	jw, err := journal.Create(jpath, journal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	opts := mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs1"},
			{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
		},
		MaxDepth: 3,
		MaxOps:   5000,
		Journal:  jw,
	}
	session, err := mcfs.NewSession(opts)
	if err != nil {
		log.Fatal(err)
	}
	res := session.Run()
	session.Close()
	if err := jw.Close(); err != nil {
		log.Fatal(err)
	}
	if res.Bug == nil {
		log.Fatal("seeded bug not found in budget")
	}
	fmt.Printf("found %s after %d ops; trail of %d ops\n",
		res.Bug.Discrepancy.Kind, res.Bug.OpsExecuted, len(res.Bug.Trail))

	// 2. Dump the bug-repro bundle: config + bug + trail + journal.
	if err := mcfs.WriteBundle(bundleDir, opts, res, jpath, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bundle written to %s\n", bundleDir)

	// 3. Replay the bundle on fresh targets: the recorded discrepancy
	// must reproduce, and the journal must replay without divergence.
	out, err := mcfs.ReplayBundle(bundleDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trail replay reproduced: %v\n", out.Reproduced)

	b, err := mcfs.ReadBundle(bundleDir)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := b.JournalRecords()
	if err != nil {
		log.Fatal(err)
	}
	s2, err := mcfs.NewSession(b.Config)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := s2.ReplayJournal(recs)
	s2.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("journal replay: %d steps, diverged=%v, bug reproduced=%v\n",
		rep.Steps, rep.Diverged, rep.BugReproduced)

	// 4. Shrink: delta-debug the trail to a locally-minimal repro.
	min, stats, err := mcfs.ShrinkBundle(bundleDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shrunk trail %d -> %d ops in %d replays; minimal repro:\n",
		stats.From, stats.To, stats.Replays)
	for i, op := range min {
		fmt.Printf("%3d. %s\n", i+1, op)
	}
}

// Findbug: regenerate the paper's bug-finding workflow (§6).
//
// The paper found four bugs with MCFS: two while developing VeriFS1
// (checked against Ext4) and two while developing VeriFS2 (checked
// against VeriFS1). This example seeds each bug, lets MCFS find it,
// prints the precise operation trail, and replays the trail on a fresh
// pair of file systems to confirm reproducibility.
//
// Run with:
//
//	go run ./examples/findbug
package main

import (
	"fmt"
	"log"

	"mcfs"
)

func hunt(name string, targets []mcfs.TargetSpec) {
	fmt.Printf("=== hunting: %s ===\n", name)
	opts := mcfs.Options{
		Targets:  targets,
		MaxDepth: 3,
		MaxOps:   200000,
	}
	session, err := mcfs.NewSession(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	result := session.Run()
	if result.Err != nil {
		log.Fatal(result.Err)
	}
	if result.Bug == nil {
		fmt.Printf("bug not found within %d operations\n\n", result.Ops)
		return
	}
	fmt.Printf("found after %d operations:\n  %v\n", result.Bug.OpsExecuted, result.Bug.Discrepancy)
	fmt.Println("trail:")
	for i, op := range result.Bug.Trail {
		fmt.Printf("  %d. %s\n", i+1, op)
	}

	// MCFS trails are replayable: run the same sequence on a brand-new
	// pair of file systems and watch the discrepancy reappear.
	fresh, err := mcfs.NewSession(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer fresh.Close()
	d, _, err := fresh.VerifyTrail(result.Bug.Trail, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	if d != nil {
		fmt.Println("replay on a fresh session reproduces the discrepancy: confirmed")
	} else {
		fmt.Println("replay did NOT reproduce (the bug needs backtracking to trigger)")
	}
	fmt.Println()
}

func main() {
	hunt("VeriFS1 truncate-no-zero vs Ext4 (paper: ~9K ops)", []mcfs.TargetSpec{
		{Kind: "ext4"},
		{Kind: "verifs1", Bugs: []string{mcfs.BugTruncateNoZero}},
	})
	hunt("VeriFS1 missing cache invalidation vs Ext4 (paper: ~12K ops)", []mcfs.TargetSpec{
		{Kind: "ext4"},
		{Kind: "verifs1", Bugs: []string{mcfs.BugNoCacheInvalidate}},
	})
	hunt("VeriFS2 write-hole-no-zero vs VeriFS1 (paper: ~900K ops)", []mcfs.TargetSpec{
		{Kind: "verifs1"},
		{Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}},
	})
	hunt("VeriFS2 size-update-on-overflow vs VeriFS1 (paper: ~1.2M ops)", []mcfs.TargetSpec{
		{Kind: "verifs1"},
		{Kind: "verifs2", Bugs: []string{mcfs.BugSizeUpdateOnOverflow}},
	})
}

// Command fsbench regenerates the paper's Figure 2 (model-checking speed
// for each file system pairing and backing store), the §6 remount
// ablation, and the §5 VM-snapshot rate.
//
// Usage:
//
//	fsbench [-budget N]
//
// Rates are operations per *virtual* second from the calibrated cost
// model; compare shapes and ratios against the paper, not wall time.
// The repo's committed benchmark report, BENCH_mc.json, is a golden file
// of the root package's tests, not an output of this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"mcfs"
)

func main() {
	budget := flag.Int64("budget", 0, "operations to execute per configuration (0 = the mode's default)")
	flag.Parse()

	fmt.Println("=== Figure 2: model-checking speed ===")
	rows, err := mcfs.RunFigure2(*budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
		os.Exit(1)
	}
	var base float64
	for _, r := range rows {
		if r.Label == "Ext2 vs Ext4" {
			base = r.OpsPerSec
		}
	}
	fmt.Printf("%-22s %12s %10s %8s %10s\n", "configuration", "ops/s", "vs base", "states", "swap")
	for _, r := range rows {
		rel := ""
		if base > 0 {
			ratio := r.OpsPerSec / base
			if ratio >= 1 {
				rel = fmt.Sprintf("%.1fx", ratio)
			} else {
				rel = fmt.Sprintf("1/%.1fx", 1/ratio)
			}
		}
		fmt.Printf("%-22s %12.1f %10s %8d %9.2fG\n",
			r.Label, r.OpsPerSec, rel, r.UniqueStates, float64(r.SwapBytes)/(1<<30))
	}

	fmt.Println()
	fmt.Println("=== Remount ablation (§6) ===")
	ab, err := mcfs.RunRemountAblation(*budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-22s %14s %16s %10s\n", "configuration", "with remounts", "without remounts", "speedup")
	for _, r := range ab {
		fmt.Printf("%-22s %12.1f/s %14.1f/s %9.0f%%\n",
			r.Label, r.WithRemounts, r.WithoutRemounts, r.SpeedupPercent)
	}

	fmt.Println()
	rate, err := mcfs.VMSnapshotRate(0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("=== VM snapshot tracking (§5) ===\nVeriFS1 vs VeriFS2 under VM snapshotting: %.1f ops/s (paper: 20-30 ops/s)\n", rate)
}

// Command longrun regenerates the paper's Figure 3: MCFS throughput and
// swap usage over a simulated multi-day run on VeriFS1.
//
// Usage:
//
//	longrun [-days N] [-samples-per-day N] [-progress]
//
// A short real VeriFS1 vs VeriFS2 exploration calibrates the
// per-operation cost; the long-run dynamics come from the memory model
// (visited-state growth, the hash-table resize crash, swap spill, and
// the late RAM-hit-rate rebound). With -progress every simulated point
// streams to stderr as it is computed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"mcfs"
)

func main() { os.Exit(run(os.Args[1:])) }

// cli is the parsed command line.
type cli struct {
	days          float64
	samplesPerDay int
	progress      bool
}

// bindFlags defines every longrun flag on fs.
func bindFlags(fs *flag.FlagSet) *cli {
	c := &cli{}
	fs.Float64Var(&c.days, "days", 14, "virtual days to simulate")
	fs.IntVar(&c.samplesPerDay, "samples-per-day", 4, "output samples per day")
	fs.BoolVar(&c.progress, "progress", false, "stream every simulated point to stderr as it is computed")
	return c
}

// run's return value is the process exit code.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	c := bindFlags(fs)
	fs.Parse(args) // ExitOnError: does not return on a bad flag
	fail := func(code int, err error) int {
		fmt.Fprintf(os.Stderr, "longrun: %v\n", err)
		return code
	}
	switch {
	case int(c.days*24) < 1:
		return fail(2, errors.New("-days must cover at least one simulated hour"))
	case c.samplesPerDay < 1:
		return fail(2, errors.New("-samples-per-day must be at least 1"))
	}

	cfg := mcfs.Figure3Config{Days: c.days}
	if c.progress {
		cfg.Progress = func(p mcfs.Figure3Point) {
			fmt.Fprintf(os.Stderr, "progress: day %5.2f  %8.1f ops/s  %6.1f GB swap\n",
				p.Day, p.OpsPerSec, p.SwapGB)
		}
	}
	points, err := mcfs.RunFigure3(cfg)
	if err != nil {
		return fail(1, err)
	}
	fmt.Println("=== Figure 3: two-week VeriFS1 run ===")
	fmt.Printf("%8s %12s %10s\n", "day", "ops/s", "swap (GB)")
	stride := max(24/c.samplesPerDay, 1)
	for i, p := range points {
		if i%stride != 0 && i != len(points)-1 {
			continue
		}
		fmt.Printf("%8.2f %12.1f %10.1f\n", p.Day, p.OpsPerSec, p.SwapGB)
	}

	// Phase summary, for quick comparison with the paper's narrative.
	fmt.Println()
	first, last := points[0], points[len(points)-1]
	lowest := first
	for _, p := range points {
		if p.OpsPerSec < lowest.OpsPerSec {
			lowest = p
		}
	}
	fmt.Printf("initial rate %.0f ops/s, minimum %.0f ops/s at day %.1f, final %.0f ops/s, final swap %.1f GB\n",
		first.OpsPerSec, lowest.OpsPerSec, lowest.Day, last.OpsPerSec, last.SwapGB)
	return 0
}

// Command benchmark is the repo's wall-clock benchmark: exhaustive
// bounded explorations timed end to end on two clocks (wall and the
// engine's virtual clock), and a bench-side driver that re-executes an
// exploration's journal through the layers' public functions to say
// which layer the time and the allocations belong to. README.md has the
// workloads, the metrics and how to read them; BENCHMARK.json at the
// repo root is the machine-readable contract.
//
//	go run ./benchmark -workload verifs-deep -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload ext-pair -trace 1
//	go run ./benchmark -repeat 2
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func envLine() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return fmt.Sprintf("env %s %s/%s GOMAXPROCS=%d nproc=%d GOGC=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc)
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json); required unless -repeat")
	seed := flag.Int64("seed", 1, "seed the exploration orders are derived from")
	seconds := flag.Float64("seconds", 15, "measured time per run")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics, instrumentation off; 1: per-layer metrics from the traced run")
	repeat := flag.Int("repeat", 0, "run every workload this many times and fail if two sets differ by more than a metric's bound")
	flag.Parse()
	fmt.Println(envLine())

	if *repeat > 0 {
		if !repeatability(*repeat, *seed, *seconds) {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	var res *runResult
	if *traceOn != 0 {
		res = traced(w, *seed, *seconds, os.Stdout)
	} else {
		res = measure(w, *seed, *seconds, processStart, os.Stdout)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// repeatability measures every workload sets times over (fresh
// sessions throughout, a forced collection between sets) and reports, per
// end-to-end metric, how far each later set's value lies on the worse
// side of the first set's, as a share of it. It returns false when any
// exceeds the metric's bound or any run was incorrect.
func repeatability(sets int, seed int64, seconds float64) bool {
	ok := true
	first := map[string]*runResult{}
	began := processStart
	for set := 0; set < sets; set++ {
		runtime.GC()
		for _, w := range workloads {
			res := measure(w, seed, seconds, began, os.Stdout)
			began = now()
			if err := res.print(os.Stdout); err != nil || !res.correct() {
				ok = false
			}
			if set == 0 {
				first[w.name] = res
				continue
			}
			for _, d := range endToEnd {
				a, b := first[w.name].values[d.name], res.values[d.name]
				worse := (b - a) / a
				if d.better == "higher" {
					worse = -worse
				}
				verdict := "within"
				if worse > d.bound || math.IsNaN(worse) {
					verdict, ok = "EXCEEDS", false
				}
				fmt.Printf("repeat %-14s %-14s set0=%.4f set%d=%.4f worse_by=%+.4f bound=%.3f %s\n",
					w.name, d.name, a, set, b, worse, d.bound, verdict)
			}
		}
	}
	return ok
}

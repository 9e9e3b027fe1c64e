// Command longrun regenerates the paper's Figure 3: MCFS throughput and
// swap usage over a simulated multi-day run on VeriFS1.
//
// Usage:
//
//	longrun [-days N] [-samples-per-day N] [-calibration-workers N]
//	        [-share-visited] [-visited exact|compact|bitstate]
//	        [-mem-budget 64M] [-bitstate-bytes 8M]
//	        [-crash] [-progress] [-metrics-addr :8080]
//	        [-journal file]
//
// A short real exploration calibrates the per-operation cost; with
// -calibration-workers > 1 the calibration runs as a coordinated swarm
// of diversified workers (optionally sharing one visited table via
// -share-visited) and averages the cost over every worker. The
// long-run dynamics come from the memory model (visited-state growth,
// the hash-table resize crash, swap spill, and the late RAM-hit-rate
// rebound). With -progress every simulated point streams to stderr as it
// is computed; -metrics-addr serves the calibration run's metrics plus
// the live figure3.* gauges as JSON, the calibration's exploration
// event feed at /events (NDJSON), and per-worker health at /workers;
// -journal flight-records the
// calibration exploration to a replayable JSONL file. -crash calibrates
// with crash-consistency checking on the ext pair and adds the crash
// hot path — crash points per virtual second and the fsck share of
// attributed time — to every -progress line and the /metrics document.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"mcfs"
	"mcfs/cmd/internal/runflag"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
)

func main() { os.Exit(run(os.Args[1:])) }

// cli is the parsed command line: the calibration's run spec plus the
// simulation and reporting switches.
type cli struct {
	cal           mcfs.Options
	days          float64
	samplesPerDay int
	progress      bool
	metricsAddr   string
	journalPath   string
}

// bindFlags defines every longrun flag on fs; run-spec flags write
// straight into the calibration spec.
func bindFlags(fs *flag.FlagSet) *cli {
	c := &cli{}
	runflag.Bind(fs, &c.cal)
	fs.IntVar(&c.cal.Workers, "calibration-workers", 1, "calibrate per-op cost with a swarm of N diversified workers")
	fs.Float64Var(&c.days, "days", 14, "virtual days to simulate")
	fs.IntVar(&c.samplesPerDay, "samples-per-day", 4, "output samples per day")
	fs.BoolVar(&c.progress, "progress", false, "stream every simulated point to stderr as it is computed")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve JSON metrics at this address (/metrics); \":0\" picks a port")
	fs.StringVar(&c.journalPath, "journal", "", "flight-record the calibration exploration to this JSONL file")
	return c
}

// run's return value is the process exit code, so deferred cleanup (the
// journal's buffered tail above all) still executes on a failure.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	c := bindFlags(fs)
	fs.Parse(args) // ExitOnError: does not return on a bad flag
	fail := func(code int, err error) int {
		fmt.Fprintf(os.Stderr, "longrun: %v\n", err)
		return code
	}
	var err error
	switch {
	case int(c.days*24) < 1:
		err = errors.New("-days must cover at least one simulated hour")
	case c.samplesPerDay < 1:
		err = errors.New("-samples-per-day must be at least 1")
	default:
		err = runflag.CheckDependents(fs)
	}
	if err != nil {
		return fail(2, err)
	}

	cfg := mcfs.Figure3Config{Days: c.days, Calibration: c.cal}
	cal := &cfg.Calibration
	if cal.CrashExploration || c.metricsAddr != "" {
		cal.Obs = obs.New()
	}
	hub := cal.Obs
	// crashProfile is the calibration's phase profile in -crash mode; a
	// -metrics-addr hub records phases too, but only crash mode reports
	// them.
	crashProfile := func() (obs.Profile, bool) {
		prof := hub.Profile()
		return prof, cal.CrashExploration && prof.Enabled()
	}
	if c.journalPath != "" {
		jw, err := journal.Create(c.journalPath, journal.Options{})
		if err != nil {
			return fail(1, err)
		}
		defer jw.Close()
		cal.Journal = jw
	}
	if c.progress {
		cfg.Progress = func(p mcfs.Figure3Point) {
			line := fmt.Sprintf("progress: day %5.2f  %8.1f ops/s  %6.1f GB swap",
				p.Day, p.OpsPerSec, p.SwapGB)
			// In crash mode the calibration ran with the crash checker;
			// surface its hot path next to the simulated series.
			if prof, ok := crashProfile(); ok {
				line += fmt.Sprintf("  crash %.1f pts/s  fsck %.1f%%",
					prof.CrashPointsPerSec(), prof.Share(obs.PhaseFsck)*100)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if c.metricsAddr != "" {
		bus := stream.New()
		bus.SetObs(hub)
		cal.Stream = bus
		srv, err := obs.ServeMetrics(c.metricsAddr, func() any {
			doc := struct {
				obs.Snapshot
				Perf *obs.Profile `json:"perf,omitempty"`
			}{Snapshot: hub.Snapshot()}
			if prof, ok := crashProfile(); ok {
				doc.Perf = &prof
			}
			return doc
		},
			obs.Route{Pattern: "/events", Handler: stream.EventsHandler(bus)},
			obs.Route{Pattern: "/workers", Handler: stream.WorkersHandler(bus)})
		if err != nil {
			return fail(1, err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (live: /events, /workers)\n", srv.Addr)
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
	if prof, ok := crashProfile(); ok {
		fmt.Println("\ncalibration phase profile:")
		prof.WriteTable(os.Stdout)
	}
	return 0
}

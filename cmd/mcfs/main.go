// Command mcfs model-checks two (or more) file systems against each
// other, reporting the first behavioral discrepancy with the precise
// operation trail that produced it.
//
// Usage:
//
//	mcfs -fs ext2 -fs ext4 [-depth 3] [-max-ops 100000] [-seed 0]
//	     [-bug name] [-backing ram|ssd|hdd] [-no-remount]
//	     [-crash]
//	     [-swarm N] [-share-visited]
//	     [-visited exact|compact|bitstate] [-mem-budget 64M]
//	     [-bitstate-bytes 8M]
//	     [-progress 1s] [-stall-ops N] [-metrics-addr :8080]
//	     [-trace-dump] [-coverage] [-journal file] [-bundle dir]
//	     [-events file] [-crash-heatmap file]
//	mcfs replay <bundle-dir>
//	mcfs shrink <bundle-dir>
//
// Supported -fs kinds: ext2, ext4, xfs, jffs2, verifs1, verifs2.
// Seedable -bug names (applied to the LAST -fs target): truncate-no-zero
// (verifs1), write-hole-no-zero and size-update-on-overflow (verifs2),
// no-cache-invalidate (either VeriFS), journal-commit-first (ext4). A
// target kind that does not implement the named bug is an error, not a
// clean run.
//
// Crash exploration: -crash crash-tests every explored operation's write
// window on each crash-testable target (ext2/ext4/jffs2 with per-op
// remounts) — power loss is simulated after every write of the window
// (an even spread of 64 in a longer one), the target is remounted
// through its recovery path, and the recovered state is checked against
// a prefix-consistency oracle (for ext4: fsck is clean and metadata
// equals the pre-op or post-op state; ext2 and jffs2 must recover to a
// mountable volume). Crash bugs carry the trail plus the exact (target,
// write) crash point and flow through -bundle / replay / shrink like any
// other discrepancy.
//
// Observability: -progress prints a frame of Spin-style status lines at
// the given wall-clock interval and once more when the run ends, from the
// live stream's worker table (a line per engine or swarm worker with its
// status, health, crash points and check p50/p99, plus a merged swarm
// line); -stall-ops warns when that many operations pass without a
// globally-novel state; -metrics-addr serves the aggregated metrics as
// JSON at /metrics (plus net/http/pprof under /debug/pprof/); -trace-dump
// prints the cross-layer span trace of a reported bug trail; -coverage
// prints the per-(operation, errno) outcome matrix after the run.
//
// Live stream: -events records every exploration event (steps, crash
// verdicts, worker heartbeats, bugs) as NDJSON in deterministic virtual
// time; -metrics-addr additionally serves the stream at /events (NDJSON)
// and worker health at /workers; with -crash, -crash-heatmap writes the
// aggregated crash-verdict heatmap (rows = ops, cols = write index,
// cells = b0/b1/fsck-repaired/bug) and prints its text grid.
//
// Bounded memory: -visited selects the visited-table backend — exact
// (default), compact (64-bit hash compaction, Spin -DHC), or bitstate
// (fixed-RAM Bloom filter, Spin -DBITSTATE; sized by -bitstate-bytes).
// -mem-budget arms the memory governor: the modeled footprint is
// watched against the budget (K/M/G suffixes), and instead of dying
// out of memory the table degrades — deep exact entries are evicted at
// the soft watermark, then the backend migrates exact→compact→bitstate
// at the hard watermark. The run reports its final fidelity and the
// estimated omission probability; reduced-fidelity runs cannot export
// resume state.
//
// Flight recorder: -journal records every nondeterministic engine choice
// to a crash-safe JSONL file; -bundle dumps a bug-repro bundle directory
// (config, bug + trail, journal, metrics, coverage) whenever the run
// reports a discrepancy. "mcfs replay <dir>" re-executes a bundle's trail
// (and its journal, when present) against fresh targets and exits 0 iff
// the recorded discrepancy reproduces; "mcfs shrink <dir>" delta-debugs
// the trail to a locally-minimal repro written back into the bundle.
//
// Examples:
//
//	mcfs -fs ext2 -fs ext4                  # cross-check two kernel FSes
//	mcfs -fs verifs1 -fs verifs2            # checkpoint/restore tracking
//	mcfs -fs verifs1 -fs verifs2 -bug write-hole-no-zero -trace-dump
//	mcfs -fs verifs1 -fs verifs2 -swarm 4 -progress 1s -metrics-addr :0
//	mcfs -fs verifs1 -fs verifs2 -swarm 8 -share-visited
//	mcfs -fs verifs1 -fs verifs2 -bug write-hole-no-zero -bundle ./bug1
//	mcfs replay ./bug1 && mcfs shrink ./bug1
//	mcfs -fs ext2 -fs ext4 -bug journal-commit-first -crash -depth 1
//
// Swarm mode is coordinated: the first worker to find a bug (or fail)
// cancels the rest, -share-visited makes workers prune states their
// peers already expanded, and at most GOMAXPROCS of the N workers run
// at once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
	"mcfs/internal/workload"
)

// metricsDoc is the /metrics JSON document: the merged hub snapshot's
// flat sections (counters, gauges, histograms) plus a "perf" section
// with the merged phase profile.
type metricsDoc struct {
	obs.Snapshot
	Perf *obs.Profile `json:"perf,omitempty"`
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "replay":
			os.Exit(runReplay(os.Args[2:]))
		case "shrink":
			os.Exit(runShrink(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:]))
}

// cli is the parsed command line: the run spec, what shapes its targets,
// and the host-side switches deciding what is attached to the run and
// reported after it.
type cli struct {
	spec          mcfs.Options
	fsKinds, bugs stringList
	backing       string
	noRemount     bool

	progress     time.Duration
	stallOps     int64
	metricsAddr  string
	journalPath  string
	bundleDir    string
	eventsPath   string
	heatmapPath  string
	traceDump    bool
	phaseProfile bool
	coverage     bool
}

// bindFlags defines every mcfs flag on fs; run-spec flags write straight
// into the spec.
func bindFlags(fs *flag.FlagSet) *cli {
	c := &cli{}
	fs.Var(&c.fsKinds, "fs", "file system under test (repeat; at least two)")
	fs.Var(&c.bugs, "bug", "seed a named bug into the last -fs target (repeatable)")
	fs.StringVar(&c.backing, "backing", "ram", "device backing for kernel FSes: ram, ssd, hdd")
	fs.BoolVar(&c.noRemount, "no-remount", false, "disable per-operation remounts for kernel FSes")
	fs.BoolVar(&c.spec.CrashExploration, "crash", false, "crash-test each operation's write window (ext2/ext4/jffs2 targets)")
	fs.BoolVar(&c.spec.ShareVisited, "share-visited", false, "swarm workers share one visited-state table (prune peer-explored states)")
	fs.StringVar(&c.spec.Visited, "visited", "", "visited-table backend: exact (default), compact, or bitstate")
	fs.Var((*Size)(&c.spec.MemBudget), "mem-budget", "memory budget with K/M/G suffix (e.g. 64M); arms the degradation governor")
	fs.Var((*Size)(&c.spec.BitstateBytes), "bitstate-bytes", "bitstate Bloom array size with K/M/G suffix (default: budget/4 or 8M)")
	fs.IntVar(&c.spec.MaxDepth, "depth", 3, "maximum operation-sequence depth")
	fs.Int64Var(&c.spec.MaxOps, "max-ops", 100000, "operation budget (0 = unlimited)")
	fs.Int64Var(&c.spec.MaxStates, "max-states", 0, "unique-state budget (0 = unlimited)")
	fs.Int64Var(&c.spec.Seed, "seed", 0, "search-order seed (0 = deterministic enumeration)")
	fs.BoolVar(&c.spec.MajorityVote, "majority", false, "with 3+ targets, identify the deviating minority (majority voting)")
	fs.IntVar(&c.spec.Workers, "swarm", 0, "run N diversified workers in parallel (0 = single engine)")
	fs.DurationVar(&c.progress, "progress", 0, "print a status line per engine at this wall-clock interval (0 = off)")
	fs.Int64Var(&c.stallOps, "stall-ops", 0, "warn when this many ops pass without a novel state (needs -progress)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve JSON metrics at this address (/metrics, /debug/pprof/); \":0\" picks a port")
	fs.BoolVar(&c.traceDump, "trace-dump", false, "dump the cross-layer span trace of a reported bug trail (plus the perf phase profile)")
	fs.BoolVar(&c.phaseProfile, "phase-profile", false, "print the engine phase-time breakdown table at end of run")
	fs.BoolVar(&c.coverage, "coverage", false, "print the per-(operation, errno) outcome matrix")
	fs.StringVar(&c.journalPath, "journal", "", "record the flight-recorder journal to this JSONL file")
	fs.StringVar(&c.bundleDir, "bundle", "", "write a bug-repro bundle to this directory when a discrepancy is found")
	fs.StringVar(&c.eventsPath, "events", "", "record the live exploration event stream to this NDJSON file")
	fs.StringVar(&c.heatmapPath, "crash-heatmap", "", "write the aggregated crash-verdict heatmap (rows = ops, cols = write index) to this JSON file; needs -crash")
	return c
}

// run is the default (checking) mode; its return value is the process
// exit code, so deferred cleanup (journal close, temp files, metrics
// server) still executes.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	c := bindFlags(fs)
	fs.Parse(args) // ExitOnError: does not return on a bad flag
	fail := func(code int, err error) int {
		// Library errors already say "mcfs: "; print the prefix once.
		fmt.Fprintf(os.Stderr, "mcfs: %s\n", strings.TrimPrefix(err.Error(), "mcfs: "))
		return code
	}
	if len(c.fsKinds) < 2 {
		fmt.Fprintln(os.Stderr, "mcfs: need at least two -fs targets")
		fs.Usage()
		return 2
	}
	if err := checkDependents(fs); err != nil {
		return fail(2, err)
	}
	spec, swarm := c.spec, c.spec.Workers > 0
	spec.Targets = make([]mcfs.TargetSpec, len(c.fsKinds))
	for i, kind := range c.fsKinds {
		spec.Targets[i] = mcfs.TargetSpec{
			Kind:                kind,
			Backing:             mcfs.Backing(c.backing),
			DisablePerOpRemount: c.noRemount,
		}
	}
	spec.Targets[len(spec.Targets)-1].Bugs = c.bugs

	// Observability stays fully off (nil hub, zero overhead: one branch
	// per phase boundary) unless a flag needs it. The event stream
	// follows the same rule: a nil bus costs one branch per emit site.
	obsOn := c.progress > 0 || c.metricsAddr != "" || c.traceDump || c.bundleDir != "" || c.phaseProfile
	if c.eventsPath != "" || c.progress > 0 || c.metricsAddr != "" {
		spec.Stream = stream.New()
	}
	bus := spec.Stream

	// The flight recorder journals to -journal; a -bundle without an
	// explicit journal records to a scratch file so the bundle still
	// ships one.
	jpath := c.journalPath
	if jpath == "" && c.bundleDir != "" {
		f, err := os.CreateTemp("", "mcfs-journal-*.jsonl")
		if err != nil {
			return fail(1, err)
		}
		f.Close()
		jpath = f.Name()
		defer os.Remove(jpath)
	}
	if jpath != "" {
		jw, err := journal.Create(jpath, journal.Options{})
		if err != nil {
			return fail(1, err)
		}
		defer jw.Close()
		spec.Journal = jw
	}

	// One hub per engine (nil entries when off).
	hubs := make([]*obs.Hub, max(spec.Workers, 1))
	for i := range hubs {
		if obsOn {
			hubs[i] = obs.New() // sessions rebase it onto their virtual clocks
		}
	}
	// Surface ring-overflow drops as obs.stream.dropped on the first hub
	// (merged snapshots sum it in with everything else).
	bus.SetObs(hubs[0])
	// attach gives engine number worker (1-based) its hub.
	attach := func(worker int, o *mcfs.Options) error {
		o.Obs = hubs[worker-1]
		return nil
	}
	// mergedHubs merges every engine's instruments.
	mergedHubs := func() obs.Snapshot {
		snaps := make([]obs.Snapshot, len(hubs))
		for i, h := range hubs {
			snaps[i] = h.Snapshot()
		}
		return obs.Merge(snaps...)
	}
	// mergedProfile folds the per-engine phase profiles into one
	// (telemetry samples survive only in the single-engine case).
	mergedProfile := func() (merged obs.Profile) {
		if len(hubs) == 1 {
			return hubs[0].Profile()
		}
		for _, h := range hubs {
			merged = merged.Merge(h.Profile())
		}
		return merged
	}

	if c.metricsAddr != "" {
		srv, err := obs.ServeMetrics(c.metricsAddr, func() any {
			p := mergedProfile()
			return metricsDoc{Snapshot: mergedHubs(), Perf: &p}
		},
			obs.Route{Pattern: "/events", Handler: stream.EventsHandler(bus)},
			obs.Route{Pattern: "/workers", Handler: stream.WorkersHandler(bus)},
		)
		if err != nil {
			return fail(1, err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (live: /events, /workers)\n", srv.Addr)
	}
	if c.eventsPath != "" {
		stopSink, err := startEventSink(bus, c.eventsPath)
		if err != nil {
			return fail(1, err)
		}
		defer stopSink()
	}
	stopProgress := func() {}
	if c.progress > 0 {
		stopProgress = startProgress(os.Stderr, bus, hubs, c.progress, c.stallOps)
		defer stopProgress()
	}

	// A run leaves one result that decides the exit code and feeds the
	// bundle — the session's, or in a swarm the bug (else failed)
	// worker's — plus the (merged) views the tail below renders.
	var (
		final    mcfs.Result
		coverage mcfs.Coverage
		crash    mcfs.CrashStats
		phases   obs.Profile
		heatmap  *stream.Heatmap
	)
	if swarm {
		sr, err := mcfs.SwarmRun(spec, attach)
		stopProgress()
		if err != nil {
			return fail(1, err)
		}
		for i, res := range sr.Workers {
			fmt.Printf("--- worker %d ---\n", i+1)
			if res.Canceled {
				fmt.Printf("stopped early after %d ops (peer found a bug or failed)\n", res.Ops)
				continue
			}
			printResult(res, c.traceDump)
		}
		fmt.Printf("--- swarm (merged) ---\n")
		fmt.Printf("operations executed:  %d\n", sr.Ops)
		fmt.Printf("unique states:        %d distinct (%d summed, %d duplicated across workers)\n",
			sr.GlobalUniqueStates, sr.UniqueStates, sr.DuplicateStates)
		fmt.Printf("revisited states:     %d\n", sr.Revisits)
		printFidelity(sr.Fidelity, sr.OmissionProb, sr.ResumeErr)
		printCrashStats(sr.Crash)
		if sr.Err != nil {
			fmt.Fprintf(os.Stderr, "engine error (worker %d): %v\n", sr.ErrWorker+1, sr.Err)
		}
		if sr.Bug != nil {
			fmt.Printf("\nDISCREPANCY (worker %d) after %d operations:\n%v\n",
				sr.BugWorker+1, sr.Bug.OpsExecuted, sr.Bug.Discrepancy)
			fmt.Printf("trail:\n%s", workload.TrailString(sr.Bug.Trail))
		}
		// The bug (else failed) worker's spec — its seed included — is what
		// a replay must rebuild; SwarmRun assigned it seed worker+1.
		w := sr.BugWorker
		if w < 0 {
			w = sr.ErrWorker
		}
		if w >= 0 {
			final, spec.Seed = sr.Workers[w], int64(w+1)
		}
		coverage, crash, phases, heatmap = sr.Coverage, sr.Crash, sr.Perf, sr.CrashHeatmap
	} else {
		_ = attach(1, &spec) // cannot fail
		session, err := mcfs.NewSession(spec)
		if err != nil {
			return fail(1, err)
		}
		defer session.Close()
		final = session.Run()
		stopProgress()
		printResult(final, c.traceDump)
		fmt.Printf("syscalls executed: %d\n", session.Kernel().SyscallCount())
		coverage, crash, phases, heatmap = final.Coverage, final.Crash, mergedProfile(), final.CrashHeatmap
	}

	if c.coverage {
		printCoverage(coverage, crash)
	}
	printPerf(phases, c.phaseProfile, c.traceDump)
	if c.heatmapPath != "" {
		if err := writeHeatmap(heatmap, c.heatmapPath); err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: crash heatmap: %v\n", err)
		}
	}
	if final.Bug == nil && final.Err == nil {
		return 0
	}
	if c.bundleDir != "" {
		// A run that died (out of memory, say) still leaves its evidence:
		// config, journal, metrics — just no bug.json. Closing the journal
		// flushes it for the copy.
		if err := spec.Journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: journal: %v\n", err)
		}
		var metrics *obs.Snapshot
		if obsOn {
			m := mergedHubs()
			metrics = &m
		}
		if err := mcfs.WriteBundle(c.bundleDir, spec, final, jpath, metrics); err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "repro bundle written to %s\n", c.bundleDir)
		}
	}
	if final.Bug != nil {
		return 3
	}
	return 1
}

// writeHeatmap dumps the aggregated crash-verdict heatmap artifact to
// path and renders its text grid.
func writeHeatmap(hm *stream.Heatmap, path string) error {
	snap := hm.Snapshot()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println()
	snap.WriteTable(os.Stdout)
	fmt.Fprintf(os.Stderr, "crash heatmap written to %s\n", path)
	return nil
}

// runReplay implements "mcfs replay <bundle-dir>": re-execute the
// bundle's recorded trail (and minimized trail, when present) against
// fresh targets built from its config, then — when the bundle ships a
// journal — step the full journal through the replay driver to verify
// the run is deterministic. Exits 0 iff the recorded discrepancy
// reproduces.
func runReplay(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcfs replay <bundle-dir>")
		return 2
	}
	dir := args[0]
	b, err := mcfs.ReadBundle(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs replay: %v\n", err)
		return 1
	}
	fmt.Printf("bundle: %s\n", dir)
	fmt.Printf("recorded bug: %s at op %v (trail of %d ops)\n", b.Bug.Kind, b.Bug.Op, len(b.Trail))

	out, err := b.Replay()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs replay: %v\n", err)
		return 1
	}
	if out.Reproduced {
		fmt.Printf("trail replay: reproduced (%v)\n", out.Discrepancy)
	} else if out.Discrepancy != nil {
		fmt.Printf("trail replay: DIFFERENT discrepancy (%v)\n", out.Discrepancy)
	} else {
		fmt.Println("trail replay: did NOT reproduce")
	}
	if out.MinReproduced != nil {
		if *out.MinReproduced {
			fmt.Printf("minimized trail (%d ops): reproduced\n", len(b.MinTrail))
		} else {
			fmt.Printf("minimized trail (%d ops): did NOT reproduce\n", len(b.MinTrail))
		}
	}

	recs, err := b.JournalRecords()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs replay: journal: %v\n", err)
		return 1
	}
	if len(recs) > 0 {
		s, err := mcfs.NewSession(b.Config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs replay: %v\n", err)
			return 1
		}
		rep, err := s.ReplayJournal(recs)
		s.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs replay: journal: %v\n", err)
			return 1
		}
		switch {
		case rep.Diverged:
			fmt.Printf("journal replay (worker %d): DIVERGED at step %d: %s\n",
				rep.Worker, rep.DivergedAt, rep.Reason)
		case rep.BugReproduced:
			fmt.Printf("journal replay (worker %d): deterministic, %d steps, bug reproduced\n",
				rep.Worker, rep.Steps)
		default:
			fmt.Printf("journal replay (worker %d): deterministic, %d steps\n", rep.Worker, rep.Steps)
		}
		if rep.Diverged {
			return 1
		}
	}

	if !out.Reproduced {
		return 1
	}
	return 0
}

// runShrink implements "mcfs shrink <bundle-dir>": delta-debug the
// bundle's trail down to a locally-minimal reproducing sequence and
// write it back into the bundle as trail.min.json.
func runShrink(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcfs shrink <bundle-dir>")
		return 2
	}
	dir := args[0]
	min, stats, err := mcfs.ShrinkBundle(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcfs shrink: %v\n", err)
		return 1
	}
	fmt.Printf("shrunk trail: %d -> %d ops in %d replays\n", stats.From, stats.To, stats.Replays)
	if stats.From == stats.To {
		fmt.Println("trail was already minimal")
	}
	if !stats.Minimal {
		fmt.Println("note: replay budget hit; result may not be 1-minimal")
	}
	for i, op := range min {
		fmt.Printf("%3d. %s\n", i+1, op)
	}
	fmt.Printf("written to %s\n", filepath.Join(dir, mcfs.BundleMinTrailFile))
	return 0
}

func printResult(res mcfs.Result, traceDump bool) {
	if res.Err != nil {
		// A structured failure (out of memory, say) still reports the
		// work done up to the abort — the counters below are real.
		fmt.Fprintf(os.Stderr, "engine error: %v\n", res.Err)
	}
	fmt.Printf("operations executed:  %d\n", res.Ops)
	fmt.Printf("unique states:        %d\n", res.UniqueStates)
	fmt.Printf("revisited states:     %d\n", res.Revisits)
	fmt.Printf("virtual elapsed:      %v\n", res.Elapsed)
	fmt.Printf("model-checking speed: %.1f ops/s\n", res.Rate)
	printFidelity(res.Fidelity, res.OmissionProb, res.ResumeErr)
	printCrashStats(res.Crash)
	if res.Bug == nil {
		if res.Err == nil {
			fmt.Println("no discrepancies found")
		}
		return
	}
	fmt.Printf("\nDISCREPANCY after %d operations:\n%v\n", res.Bug.OpsExecuted, res.Bug.Discrepancy)
	fmt.Printf("trail:\n%s", workload.TrailString(res.Bug.Trail))
	if traceDump && len(res.Bug.TrailSpans) > 0 {
		fmt.Printf("\ncross-layer trace of the trail:\n")
		obs.WriteTrace(os.Stdout, res.Bug.TrailSpans)
	}
}

// printPerf renders the run's phase profile: the human breakdown table
// under -phase-profile, and the machine-readable JSON document (the
// same "perf" section /metrics serves) under -trace-dump. Silent when
// no phase work was recorded.
func printPerf(snap obs.Profile, table, dump bool) {
	if !snap.Enabled() {
		return
	}
	if table {
		fmt.Println("\nphase profile:")
		snap.WriteTable(os.Stdout)
	}
	if dump {
		fmt.Println("\nperf:")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	}
}

// printFidelity reports a degraded visited table honestly: the final
// backend, the estimated omission probability, and the resume-export
// refusal when the backend cannot snapshot itself. Silent at exact
// fidelity (the default, omission zero).
func printFidelity(f mcfs.Fidelity, omission float64, resumeErr error) {
	if f != mcfs.FidelityExact {
		fmt.Printf("visited fidelity:     %s (omission probability ≈ %.3g)\n", f, omission)
	}
	if resumeErr != nil {
		fmt.Printf("resume export:        refused: %v\n", resumeErr)
	}
}

// printCrashStats summarizes crash exploration; silent when the run had
// no crash probes.
func printCrashStats(c mcfs.CrashStats) {
	if c.Probes == 0 {
		return
	}
	fmt.Printf("crash probes:         %d windows, %d points explored, %d recoveries verified\n",
		c.Probes, c.PointsExplored, c.Recovered)
	if n := c.ErrorsInjected + c.TornInjected + c.CorruptInjected; n > 0 {
		fmt.Printf("faults injected:      %d errors, %d torn writes, %d corruptions\n",
			c.ErrorsInjected, c.TornInjected, c.CorruptInjected)
	}
}

// printCoverage renders the per-(operation, errno) outcome matrix: one
// row per operation kind, one column per errno observed anywhere —
// followed by a crash-coverage row when crash exploration ran.
func printCoverage(cov mcfs.Coverage, crash mcfs.CrashStats) {
	crashRow := func() {
		if crash.Probes > 0 {
			fmt.Printf("crash coverage: %d crash points explored, %d recoveries verified, %d torn/%d error faults injected\n",
				crash.PointsExplored, crash.Recovered, crash.TornInjected, crash.ErrorsInjected)
		}
	}
	if len(cov.ByOpErrno) == 0 {
		fmt.Println("\ncoverage: no outcomes recorded")
		crashRow()
		return
	}
	ops := make([]string, 0, len(cov.ByOpErrno))
	for op := range cov.ByOpErrno {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	errs := make([]string, 0, len(cov.ByErrno))
	for e := range cov.ByErrno {
		errs = append(errs, e)
	}
	sort.Strings(errs)

	fmt.Printf("\ncoverage (op x errno), error-path ratio %.1f%%:\n", cov.ErrorPathRatio()*100)
	width := 0
	for _, op := range ops {
		if len(op) > width {
			width = len(op)
		}
	}
	header := fmt.Sprintf("%*s", width, "")
	for _, e := range errs {
		header += fmt.Sprintf(" %8s", e)
	}
	fmt.Println(header)
	for _, op := range ops {
		row := fmt.Sprintf("%*s", width, op)
		for _, e := range errs {
			if n := cov.Pair(op, e); n != 0 {
				row += fmt.Sprintf(" %8d", n)
			} else {
				row += fmt.Sprintf(" %8s", ".")
			}
		}
		fmt.Println(row)
	}
	crashRow()
}

// startEventSink streams every bus event to path as NDJSON from a
// dedicated goroutine behind a large lossy ring (the engine never
// blocks on the file). The returned stop function writes the remainder,
// closes the file, and reports any write error and ring-overflow drops.
func startEventSink(bus *stream.Bus, path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sub := bus.Subscribe(1 << 16)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- stream.WriteNDJSON(f, sub, stop) }()
	return sync.OnceFunc(func() {
		close(stop)
		err := <-done
		sub.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: event sink: %v\n", err)
		}
		if n := sub.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "mcfs: event sink dropped %d events (ring full)\n", n)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mcfs: event sink: %v\n", err)
		}
	}), nil
}

// startProgress writes a progress frame of the bus's worker table to w
// every interval. The returned stop function stops the ticker and
// writes the final frame, whose tallies are the run's.
func startProgress(w io.Writer, bus *stream.Bus, hubs []*obs.Hub, every time.Duration, stallOps int64) func() {
	stall := &stream.Stall{Ops: stallOps}
	frame := func() { _ = stream.WriteProgress(w, bus.Workers(), hubs, stall) } // a frame is a diagnostic: nowhere to report its loss
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				frame()
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(stop)
		<-done
		frame()
	})
}

package mc_test

import (
	"io"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
)

// benchExplore runs one bounded exploration per iteration. Comparing the
// NilObs and WithObs variants shows what instrumentation costs: with a
// nil hub every instrument call is a single nil check, so NilObs must
// stay within noise of seed speed, and WithObs shows what the hub's
// counters, spans, phase timers and telemetry add.
func benchExplore(b *testing.B, hub func() *obs.Hub) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 2,
			MaxOps:   300,
			Obs:      hub(),
		})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		s.Close()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Bug != nil {
			b.Fatalf("unexpected bug: %v", res.Bug)
		}
	}
}

func BenchmarkExploreNilObs(b *testing.B) {
	benchExplore(b, func() *obs.Hub { return nil })
}

func BenchmarkExploreWithObs(b *testing.B) {
	benchExplore(b, func() *obs.Hub { return obs.New() })
}

// BenchmarkExploreNilStream proves the event bus's nil path is free:
// sessions hold a nil *stream.Bus, so every emit site is one branch.
// Must stay within noise of BenchmarkExploreNilObs — the stream joins
// the hub and journal under the same nil-safety gate.
func BenchmarkExploreNilStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 2,
			MaxOps:   300,
			Stream:   nil,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		s.Close()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Bug != nil {
			b.Fatalf("unexpected bug: %v", res.Bug)
		}
	}
}

// BenchmarkExploreWithStream measures the live path: an attached bus
// with one never-drained subscriber (the lossy worst case — every ring
// slot overwritten), showing what event fan-out adds over seed speed.
func BenchmarkExploreWithStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus := mcfs.NewStream()
		sub := bus.Subscribe(0)
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 2,
			MaxOps:   300,
			Stream:   bus,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		s.Close()
		sub.Close()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Bug != nil {
			b.Fatalf("unexpected bug: %v", res.Bug)
		}
	}
}

// BenchmarkExploreWithJournal measures the flight recorder's hot-path
// cost with the output discarded, isolating encode+buffer overhead from
// disk speed. Compare against BenchmarkExploreNilObs.
func BenchmarkExploreWithJournal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jw := journal.NewWriter(io.Discard, journal.Options{})
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 2,
			MaxOps:   300,
			Journal:  jw,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		s.Close()
		jw.Close()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Bug != nil {
			b.Fatalf("unexpected bug: %v", res.Bug)
		}
	}
}

// benchExploreVisited runs one bounded exploration per iteration with
// the given visited-table backend. BenchmarkExploreExact vs
// BenchmarkExploreBitstate is the hot-path cost of reduced-fidelity
// matching: the bitstate table trades the map lookup (and the exact
// path's depth bookkeeping) for k hash probes into a bit array.
func benchExploreVisited(b *testing.B, backend string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
			MaxDepth: 2,
			MaxOps:   300,
			Visited:  backend,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		s.Close()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Bug != nil {
			b.Fatalf("unexpected bug: %v", res.Bug)
		}
	}
}

func BenchmarkExploreExact(b *testing.B) {
	benchExploreVisited(b, mcfs.VisitedExact)
}

func BenchmarkExploreBitstate(b *testing.B) {
	benchExploreVisited(b, mcfs.VisitedBitstate)
}

// BenchmarkCrashProbe measures the crash oracle's recovery session: one
// iteration is the ext2-vs-ext4 depth-1 crash exploration, every window
// of it probed on both planes. Reported per probe, so the number reads
// as "one write window, all of its crash points".
func BenchmarkCrashProbe(b *testing.B) {
	b.ReportAllocs()
	var probes int64
	for i := 0; i < b.N; i++ {
		s, err := mcfs.NewSession(mcfs.Options{
			Targets:          []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
			MaxDepth:         1,
			CrashExploration: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		s.Close()
		if res.Err != nil || res.Bug != nil {
			b.Fatalf("crash run: err=%v bug=%v", res.Err, res.Bug)
		}
		probes += res.Crash.Probes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
}

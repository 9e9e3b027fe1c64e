package main

import (
	"crypto/md5"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mcfs"
	"mcfs/internal/mc"
	"mcfs/internal/obs/journal"
)

// workload is one exploration the benchmark times: a target pairing
// explored to exhaustion at a fixed depth bound. Exhaustion, not an
// operation budget, is what makes the input size independent of the
// seed: the seed only permutes the order the bounded space is walked in,
// so every seed must find the same set of abstract states (checked), and
// the operation count, virtual time and allocations per operation agree
// across seeds to a fraction of a percent. Under an operation budget the
// same seeds moved those numbers by 13-22 %.
type workload struct {
	name    string
	why     string
	targets []mcfs.TargetSpec
	depth   int
	crash   bool
	workers int  // >1: a shared-visited swarm of this many engines
	xfsRows bool // the traced run adds the 16 MiB xfs tracker rows
}

var workloads = []workload{
	{
		name:    "verifs-deep",
		why:     "verifs1 vs verifs2 to depth 4: in-memory targets over FUSE, so checker+abstraction and the ioctl checkpoints do the work; blockdev, remount and fault do none",
		targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		depth:   4,
	},
	{
		name:    "ext-pair",
		why:     "ext2 vs ext4 to depth 3 with per-op remounts: full-image RemountTracker checkpoints over blockdev dominate, hashing is a minority",
		targets: []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		depth:   3,
		xfsRows: true,
	},
	{
		name:    "ext-jffs2",
		why:     "ext4 vs jffs2 to depth 3: every restore and remount re-scans the MTD log, so restore+remount dominate; compare ops_per_s with ext-pair",
		targets: []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}},
		depth:   3,
	},
	{
		name:    "ext-crash",
		why:     "ext2 vs ext4 to depth 2 with crash exploration: the same blockdev/extfs layers used through touch logs, delta power cuts, recovery mounts and fsck",
		targets: []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}},
		depth:   2,
		crash:   true,
	},
	{
		name:    "verifs-swarm2",
		why:     "two engines sharing one visited.Set over verifs-deep's space: the only workload where table sharding, the coordinator and scheduling matter",
		targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		depth:   4,
		workers: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix64 derives every seed-dependent value the benchmark uses
// (math/rand is banned module-wide by the walltime analyzer).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// subSeed is the Options.Seed of repetition i (and swarm worker wk) of
// a run started with -seed seed. Never 0: seed 0 is the engine's
// unshuffled enumeration order.
func subSeed(seed int64, i, wk int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed))+uint64(i)*64+uint64(wk))>>1) | 1
}

func (w workload) options(seed int64) mcfs.Options {
	return mcfs.Options{
		Targets:          w.targets,
		MaxDepth:         w.depth,
		CrashExploration: w.crash,
		Seed:             seed,
	}
}

// repResult is one repetition: a fresh session (or swarm of sessions)
// built, run to exhaustion and closed.
type repResult struct {
	wall    time.Duration // build + run + close
	runWall time.Duration // Run / SwarmRun alone

	ops, unique, revisits int64
	crashPoints           int64
	virtual               time.Duration // Result.Elapsed (swarm: the workers' mean)
	mallocs, bytes        uint64        // heap objects / bytes allocated over wall
	liveHeap              uint64        // HeapAlloc growth over the repetition, after a forced GC, run finished, sessions still open
	gcs                   uint32
	states                [md5.Size]byte // digest of the sorted visited-state set
	err                   error
}

// stateSetDigest identifies the set of abstract states a run visited.
func stateSetDigest(r *mc.ResumeState) [md5.Size]byte {
	h := md5.New()
	if r != nil {
		for i := range r.States {
			h.Write(r.States[i][:])
		}
	}
	var d [md5.Size]byte
	h.Sum(d[:0])
	return d
}

// rep runs one repetition with all instrumentation nil except the
// optional journal. i selects the repetition's sub-seed.
func (w workload) rep(seed int64, i int, jw *journal.Writer) repResult {
	var r repResult
	var m0, m1, live runtime.MemStats
	runtime.GC() // every repetition starts from a collected heap, the baseline of its live_heap
	runtime.ReadMemStats(&m0)
	t0 := now()
	var sessions []*mcfs.Session
	closeAll := func() {
		for _, s := range sessions {
			s.Close()
		}
	}
	var resume *mc.ResumeState
	var keep any // the result stays reachable across the live-heap read
	if w.workers <= 1 {
		opts := w.options(subSeed(seed, i, 0))
		opts.Journal = jw
		s, err := mcfs.NewSession(opts)
		if err != nil {
			r.err = err
			return r
		}
		sessions = append(sessions, s)
		t1 := now()
		res := s.Run()
		r.runWall = now().Sub(t1)
		r.ops, r.unique, r.revisits = res.Ops, res.UniqueStates, res.Revisits
		r.virtual, r.crashPoints = res.Elapsed, res.Crash.PointsExplored
		resume, keep = res.Resume, &res
		switch {
		case res.Err != nil:
			r.err = res.Err
		case res.Bug != nil:
			r.err = fmt.Errorf("bug reported on bug-free targets: %v", res.Bug.Discrepancy)
		case res.Fidelity != mcfs.FidelityExact:
			r.err = fmt.Errorf("visited table degraded to %s", res.Fidelity)
		}
	} else {
		var mu sync.Mutex
		t1 := now()
		sr, err := mc.SwarmRun(mc.SwarmOptions{Workers: w.workers, ShareVisited: true, Journal: jw},
			func(wk int64) (mc.Config, error) {
				s, err := mcfs.NewSession(w.options(subSeed(seed, i, int(wk))))
				if err != nil {
					return mc.Config{}, err
				}
				mu.Lock()
				sessions = append(sessions, s)
				mu.Unlock()
				return *s.Config(), nil
			})
		r.runWall = now().Sub(t1)
		r.ops, r.unique, r.revisits = sr.Ops, sr.GlobalUniqueStates, sr.Revisits
		// The mean worker's virtual time, not the slowest's: which worker
		// runs which op is the scheduler's choice, the virtual work is not.
		for _, wr := range sr.Workers {
			r.virtual += wr.Elapsed / time.Duration(len(sr.Workers))
		}
		resume, keep = sr.Resume, &sr
		switch {
		case err != nil:
			r.err = err
		case sr.Err != nil:
			r.err = sr.Err
		case sr.Bug != nil:
			r.err = fmt.Errorf("bug reported on bug-free targets: %v", sr.Bug.Discrepancy)
		case sr.ResumeErr != nil:
			r.err = sr.ResumeErr
		}
	}
	ran := now()
	runtime.GC()
	runtime.ReadMemStats(&live)
	r.liveHeap = live.HeapAlloc - min(m0.HeapAlloc, live.HeapAlloc)
	runtime.KeepAlive(keep)
	r.states = stateSetDigest(resume)
	t2 := now()
	closeAll()
	r.wall = ran.Sub(t0) + now().Sub(t2)
	runtime.ReadMemStats(&m1)
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC - 1 // the forced collection is ours
	return r
}

// sameExploration reports how rep b departs from reference rep a of the
// same workload. Every seed must exhaust the same bounded space; a solo
// rep on the very same seed must also repeat a's counters and virtual
// time exactly.
func (w workload) sameExploration(a, b repResult, sameSeed bool) error {
	if b.err != nil {
		return b.err
	}
	if a.unique != b.unique || a.states != b.states {
		return fmt.Errorf("visited %d states (set %x), reference visited %d (set %x): exhaustive exploration must not depend on the seed",
			b.unique, b.states[:4], a.unique, a.states[:4])
	}
	if sameSeed && w.workers <= 1 && (a.ops != b.ops || a.revisits != b.revisits || a.virtual != b.virtual) {
		return fmt.Errorf("same seed, different run: ops %d/%d revisits %d/%d virtual %v/%v",
			a.ops, b.ops, a.revisits, b.revisits, a.virtual, b.virtual)
	}
	return nil
}

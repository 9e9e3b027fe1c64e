package stream

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mcfs/internal/obs"
)

// Stall is the stall detector a run's progress frames share: once the
// rows' summed op count has advanced Ops operations without a new
// unique state, the next frame warns, once per episode; a novel state
// re-arms it. Ops <= 0 is off.
type Stall struct {
	Ops             int64
	unique, novelAt int64
	warned          bool
}

// WriteProgress writes one progress frame for h to w, Spin style: a
// line per worker row,
//
//	progress w1: depth=2 states=1543 revisits=210 ops=3201 406.2 ops/s (virtual 7.9s) status=running health=healthy crash=0
//
// then, over more than one row, the merged "progress swarm:" line
// (counters summed, depth and virtual time the maximum), then stall's
// warning when it fires, counted as obs.MetricStallWarnings on the
// first non-nil hub. The rate is the row's ops over its last beat, so
// it is virtual ops/s from one heartbeat. hubs holds the engines' hubs
// (index 0 for worker 0 or 1, i-1 for swarm worker i; nil entries and
// a short slice are fine); a row whose hub shows a degraded visited
// table carries its fidelity and omission estimate, and one whose
// compare histogram has samples its check p50/p99. A nil stall never
// warns.
func WriteProgress(w io.Writer, h Health, hubs []*obs.Hub, stall *Stall) error {
	var (
		b                               strings.Builder
		ops, unique, revisits, crashPts int64
		depth                           int
		first                           *obs.Hub
	)
	for _, r := range h.Workers {
		hub := hubOf(hubs, r.Worker)
		if first == nil {
			first = hub
		}
		name := "main"
		if r.Worker > 0 {
			name = fmt.Sprintf("w%d", r.Worker)
		}
		fmt.Fprintf(&b, "progress %s: depth=%d states=%d revisits=%d ops=%d %.1f ops/s (virtual %v) status=%s health=%s crash=%d",
			name, r.Depth, r.Unique, r.Revisits, r.Ops, rate(r.Ops, r.LastBeat),
			r.LastBeat.Round(time.Millisecond), r.Status, r.Health, r.CrashPoints)
		// A degraded visited table is flagged on every line, as Spin
		// prints its hash factor: level 1 is compact, 2 bitstate.
		if fid := hub.Gauge(obs.MetricVisitedFidelity).Value(); fid > 0 {
			mode := "compact"
			if fid >= 2 {
				mode = "bitstate"
			}
			fmt.Fprintf(&b, " fidelity=%s p_omit≈%.2e",
				mode, float64(hub.Gauge(obs.MetricVisitedOmissionPPM).Value())/1e6)
		}
		if cmp := hub.Histogram(obs.MetricCompare).Snapshot(); cmp.Count > 0 {
			fmt.Fprintf(&b, " check p50=%v p99=%v", cmp.Quantile(0.5), cmp.Quantile(0.99))
		}
		b.WriteByte('\n')
		ops, unique, revisits, crashPts = ops+r.Ops, unique+r.Unique, revisits+r.Revisits, crashPts+r.CrashPoints
		depth = max(depth, r.Depth)
	}
	if len(h.Workers) > 1 {
		fmt.Fprintf(&b, "progress swarm: workers=%d depth<=%d states=%d revisits=%d ops=%d %.1f ops/s (virtual %v) crash=%d\n",
			len(h.Workers), depth, unique, revisits, ops, rate(ops, h.Frontier),
			h.Frontier.Round(time.Millisecond), crashPts)
	}
	if stall != nil && stall.Ops > 0 && len(h.Workers) > 0 {
		if unique != stall.unique {
			stall.unique, stall.novelAt, stall.warned = unique, ops, false
		} else if !stall.warned && ops-stall.novelAt >= stall.Ops {
			stall.warned = true
			first.Counter(obs.MetricStallWarnings).Inc()
			fmt.Fprintf(&b, "warning: no novel state in %d ops (search saturated or mis-seeded?)\n", ops-stall.novelAt)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// hubOf returns worker's hub, or nil.
func hubOf(hubs []*obs.Hub, worker int) *obs.Hub {
	if i := max(worker-1, 0); i < len(hubs) {
		return hubs[i]
	}
	return nil
}

// rate is ops per virtual second, zero before any virtual time passed.
func rate(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

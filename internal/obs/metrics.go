package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil
// *Counter (as returned by a nil Hub) is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil *Gauge is a valid
// no-op instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (zero on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistogramBuckets is the fixed number of latency buckets. Bucket i
// counts observations d with BucketBound(i-1) < d <= BucketBound(i);
// the last bucket additionally absorbs everything larger.
const HistogramBuckets = 32

// BucketBound returns the inclusive upper bound of bucket i: 1µs << i,
// doubling from 1 microsecond. The final bucket's bound is only nominal
// (it also counts longer observations).
func BucketBound(i int) time.Duration {
	if i < 0 {
		i = 0
	}
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	return time.Microsecond << uint(i)
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Ceil to microseconds, then ceil(log2): the smallest i with
	// d <= 1µs<<i.
	us := uint64((d + time.Microsecond - 1) / time.Microsecond)
	idx := bits.Len64(us - 1)
	if idx >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	return idx
}

// Histogram is a bounded-bucket latency histogram with exponentially
// doubling microsecond buckets. All updates are atomic; the nil
// *Histogram is a valid no-op instrument.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; MaxInt64 while empty
	max     atomic.Int64 // nanoseconds
	buckets [HistogramBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one latency sample. Negative durations clamp to zero
// (virtual clocks never refund time, but guard anyway).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of samples (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total recorded duration (zero on nil). Unlike
// Snapshot, it is a single atomic load — cheap enough to poll per
// crash point for phase attribution.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Snapshot captures the histogram's current state. Bucket order is
// ascending by bound, so the snapshot is deterministic.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	if min := h.min.Load(); min != math.MaxInt64 {
		snap.Min = time.Duration(min)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			snap.Buckets = append(snap.Buckets, HistogramBucket{
				UpperBound: BucketBound(i),
				Count:      n,
			})
		}
	}
	return snap
}

// HistogramBucket is one non-empty bucket of a snapshot.
type HistogramBucket struct {
	// UpperBound is the bucket's inclusive upper latency bound.
	UpperBound time.Duration `json:"le_ns"`
	// Count is the number of samples in the bucket.
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	// Buckets lists the non-empty buckets in ascending bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the average sample (zero when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q'th quantile (0 <= q <= 1) of the recorded
// samples from the bucket counts: the cumulative counts locate the
// bucket the quantile rank falls in, and the estimate interpolates
// linearly inside that bucket's [lower, upper) bound range. The result
// is clamped to the observed Min/Max, which makes the estimate exact
// for single-bucket distributions and keeps p99 from overshooting the
// largest sample ever recorded. Zero when the histogram is empty or q
// is NaN — live views (mcfs top) render p50/p99 on freshly started
// workers, so the empty case must never panic or propagate NaN.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q != q {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the (1-based, fractional) sample index the quantile maps
	// to; the bucket holding that sample bounds the estimate.
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	lower := time.Duration(0)
	for _, b := range s.Buckets {
		if seen+float64(b.Count) >= rank {
			frac := (rank - seen) / float64(b.Count)
			est := lower + time.Duration(frac*float64(b.UpperBound-lower))
			if est < s.Min {
				est = s.Min
			}
			if est > s.Max {
				est = s.Max
			}
			return est
		}
		seen += float64(b.Count)
		lower = b.UpperBound
	}
	return s.Max
}

// String renders a one-line summary.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v max=%v", s.Count, s.Mean(), s.Min, s.Max)
}

// merge folds other into s, combining counts, sums, extremes, and
// bucket lists (Merge and Profile.Merge fold per-worker snapshots).
func (s HistogramSnapshot) merge(other HistogramSnapshot) HistogramSnapshot {
	if other.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return other
	}
	out := HistogramSnapshot{
		Count: s.Count + other.Count,
		Sum:   s.Sum + other.Sum,
		Min:   s.Min,
		Max:   s.Max,
	}
	if other.Min < out.Min {
		out.Min = other.Min
	}
	if other.Max > out.Max {
		out.Max = other.Max
	}
	// Both bucket lists are ascending; merge-join them.
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(other.Buckets) {
		switch {
		case j >= len(other.Buckets) || (i < len(s.Buckets) && s.Buckets[i].UpperBound < other.Buckets[j].UpperBound):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || other.Buckets[j].UpperBound < s.Buckets[i].UpperBound:
			out.Buckets = append(out.Buckets, other.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, HistogramBucket{
				UpperBound: s.Buckets[i].UpperBound,
				Count:      s.Buckets[i].Count + other.Buckets[j].Count,
			})
			i++
			j++
		}
	}
	return out
}

// Snapshot is a point-in-time copy of every instrument in a hub.
// encoding/json serializes maps with sorted keys, so marshaling a
// snapshot is deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Merge combines snapshots from several hubs (swarm workers) into one:
// counters and histograms are summed; for gauges the maximum is kept
// (a swarm's per-worker levels do not add meaningfully, but the peak
// does — e.g. the deepest DFS depth across workers).
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, s := range snaps {
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			if cur, ok := out.Gauges[name]; !ok || v > cur {
				out.Gauges[name] = v
			}
		}
		for name, h := range s.Histograms {
			out.Histograms[name] = out.Histograms[name].merge(h)
		}
	}
	return out
}

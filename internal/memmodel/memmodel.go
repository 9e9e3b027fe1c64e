// Package memmodel simulates the memory hierarchy the model checker's
// state store lives in: a RAM budget and a swap area, shared with the
// visited-state table.
//
// The paper's evaluation is dominated by memory behavior: checking Ext4
// vs XFS consumed 105 GB of swap because XFS's 16 MB concrete states
// overflowed RAM, making that configuration 11x slower than Ext2 vs Ext4
// (Figure 2); the two-week VeriFS1 run (Figure 3) shows a throughput
// crash when Spin resized its visited-state hash table (~day 3), a slow
// decline as states spilled to swap, and a late rebound when the
// RAM hit rate rose. This package gives the explorer those mechanics:
//
//   - Store charges allocation for a concrete state; once the RAM budget
//     is exceeded, cold pages are pushed to swap at a per-page cost;
//   - Fetch charges swap-in time with probability proportional to the
//     fraction of stored bytes living in swap, scaled down by a hotness
//     factor (recently stored states are likelier to be resident);
//   - Watch names the visited set that lives in the same RAM: its size,
//     read when needed, is RAM the concrete states cannot have.
//
// The hash-table resize behind Figure 3's day-3 throughput crash is not
// modeled here: RunFigure3 (the mcfs package's experiments.go) is
// analytic and carries its own slot constants.
//
// Randomness is a deterministic internal LCG, so simulations reproduce.
package memmodel

import (
	"time"

	"mcfs/internal/simclock"
)

// PageSize is the swap granularity.
const PageSize = 4096

// SharedVisitedEntryBytes approximates one entry of an exact visited
// table: a 16-byte abstract-state key, the expansion depth, and
// hash-map bucket overhead.
const SharedVisitedEntryBytes = 48

// Config sizes the memory system.
type Config struct {
	// RAMBytes is the memory available for storing concrete states.
	RAMBytes int64
	// SwapBytes is the swap capacity (0 = unlimited, like an overbooked
	// swap file; the paper's VM had 128 GB).
	SwapBytes int64
	// SwapOutCost and SwapInCost are per-page transfer costs (swap on a
	// hypervisor SSD in the paper).
	SwapOutCost time.Duration
	SwapInCost  time.Duration
}

// DefaultConfig mirrors the paper's 64 GB RAM / 128 GB swap VM with
// SSD-backed swap.
func DefaultConfig() Config {
	return Config{
		RAMBytes:    64 << 30,
		SwapBytes:   128 << 30,
		SwapOutCost: 6 * time.Microsecond,
		SwapInCost:  8 * time.Microsecond,
	}
}

// Model tracks the state store's memory occupancy.
type Model struct {
	cfg   Config
	clock *simclock.Clock

	storedBytes int64 // total concrete-state bytes stored
	swapBytes   int64 // portion of storedBytes living in swap
	peakBytes   int64 // high-water mark of the total footprint

	// visited is the set whose table lives in this RAM (Watch). Its size
	// is read when a footprint is computed, never billed, so it is the
	// set's own locking that orders the read with a peer's visit.
	visited interface{ Bytes() int64 }

	// budget and the watermark fractions define the governor's pressure
	// levels; zero budget means ungoverned (Pressure always None).
	// aboveSoft/softHits implement upward-crossing detection; owner
	// fields like the occupancy counters.
	budget    int64
	softFrac  float64
	hardFrac  float64
	aboveSoft bool
	softHits  int64

	rng uint64
}

// Pressure is the footprint's position relative to the budget
// watermarks.
type Pressure int

const (
	// PressureNone: below the soft watermark (or no budget set).
	PressureNone Pressure = iota
	// PressureSoft: past the soft watermark — start shedding cheap
	// state.
	PressureSoft
	// PressureHard: past the hard watermark — degrade now or die soon.
	PressureHard
)

// Default watermark fractions of the budget.
const (
	DefaultSoftWatermark = 0.85
	DefaultHardWatermark = 0.95
)

// ErrOutOfMemory is reported when both RAM and swap are exhausted.
type ErrOutOfMemory struct{}

func (ErrOutOfMemory) Error() string { return "memmodel: RAM and swap exhausted" }

// New builds a model charging costs to clock.
func New(cfg Config, clock *simclock.Clock) *Model {
	return &Model{cfg: cfg, clock: clock, rng: 0x9E3779B97F4A7C15}
}

func (m *Model) charge(d time.Duration) {
	if m.clock != nil && d > 0 {
		m.clock.Advance(d)
	}
}

func (m *Model) rand() float64 {
	// xorshift64*
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	return float64(m.rng*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// Watch tells the model which visited set shares its RAM: from here on
// the set's current size counts in the footprint and is RAM concrete
// states cannot have. A swarm's workers each watch the one set they
// share — one table, every worker's RAM. Safe on a nil model.
func (m *Model) Watch(set interface{ Bytes() int64 }) {
	if m == nil {
		return
	}
	m.visited = set
}

// visitedBytes is the watched set's size right now.
func (m *Model) visitedBytes() int64 {
	if m.visited == nil {
		return 0
	}
	return m.visited.Bytes()
}

// notePeak updates the footprint high-water mark. Called from the
// owner's Store only, so the peak — like the rest of the occupancy
// fields — needs no synchronization.
func (m *Model) notePeak() {
	if fp := m.Footprint(); fp > m.peakBytes {
		m.peakBytes = fp
	}
}

// ramAvailable is the RAM left for concrete states after the watched
// set.
func (m *Model) ramAvailable() int64 {
	avail := m.cfg.RAMBytes - m.visitedBytes()
	if avail < 0 {
		return 0
	}
	return avail
}

// SetBudget arms the pressure watermarks: soft and hard are fractions
// of budget (defaults when <= 0). A budget <= 0 disarms them. Safe on
// a nil model.
func (m *Model) SetBudget(budget int64, soft, hard float64) {
	if m == nil {
		return
	}
	if soft <= 0 {
		soft = DefaultSoftWatermark
	}
	if hard <= 0 {
		hard = DefaultHardWatermark
	}
	if hard < soft {
		hard = soft
	}
	m.budget, m.softFrac, m.hardFrac = budget, soft, hard
}

// Budget reports the armed budget (0 when ungoverned). Safe on a nil
// model.
func (m *Model) Budget() int64 {
	if m == nil {
		return 0
	}
	return m.budget
}

// Footprint is the current total occupancy: stored concrete states
// and the watched set. Owner-goroutine, like the occupancy counters it
// reads.
func (m *Model) Footprint() int64 {
	if m == nil {
		return 0
	}
	return m.storedBytes + m.visitedBytes()
}

// Pressure classifies the footprint against the budget watermarks and
// counts upward soft-watermark crossings. Owner-goroutine only (it
// mutates the crossing detector). Safe on a nil model.
func (m *Model) Pressure() Pressure {
	if m == nil || m.budget <= 0 {
		return PressureNone
	}
	fp := m.Footprint()
	soft := int64(float64(m.budget) * m.softFrac)
	if fp >= soft {
		if !m.aboveSoft {
			m.aboveSoft = true
			m.softHits++
		}
	} else {
		m.aboveSoft = false
	}
	if fp >= int64(float64(m.budget)*m.hardFrac) {
		return PressureHard
	}
	if fp >= soft {
		return PressureSoft
	}
	return PressureNone
}

// Store records a new concrete state of n bytes. Overflowing the RAM
// budget pushes pages to swap at SwapOutCost each.
func (m *Model) Store(n int64) error {
	if n <= 0 {
		return nil
	}
	m.storedBytes += n
	m.notePeak()
	overflow := m.storedBytes - m.ramAvailable()
	if overflow > m.swapBytes {
		newSwap := overflow - m.swapBytes
		if m.cfg.SwapBytes > 0 && overflow > m.cfg.SwapBytes {
			return ErrOutOfMemory{}
		}
		pages := (newSwap + PageSize - 1) / PageSize
		m.charge(time.Duration(pages) * m.cfg.SwapOutCost)
		m.swapBytes = overflow
	}
	return nil
}

// Release drops n bytes of stored state (a discarded checkpoint).
func (m *Model) Release(n int64) {
	m.storedBytes -= n
	if m.storedBytes < 0 {
		m.storedBytes = 0
	}
	if m.swapBytes > m.storedBytes {
		m.swapBytes = m.storedBytes
	}
}

// Fetch charges the cost of bringing a stored state of n bytes back for
// restoration. hotness in [0,1] scales down the probability that the
// state has been swapped out: 1 means certainly resident (just stored),
// 0 means subject to the global swap fraction.
func (m *Model) Fetch(n int64, hotness float64) {
	if n <= 0 || m.storedBytes == 0 || m.swapBytes == 0 {
		return
	}
	if hotness < 0 {
		hotness = 0
	}
	if hotness > 1 {
		hotness = 1
	}
	pSwapped := float64(m.swapBytes) / float64(m.storedBytes) * (1 - hotness)
	if m.rand() >= pSwapped {
		return // RAM hit
	}
	pages := (n + PageSize - 1) / PageSize
	m.charge(time.Duration(pages) * m.cfg.SwapInCost)
}

// Stats reports the current occupancy.
type Stats struct {
	StoredBytes int64
	SwapBytes   int64
	// SharedVisitedBytes is the current size of the visited set this
	// model watches (zero when it watches none): RAM the concrete states
	// cannot have.
	SharedVisitedBytes int64
	// PeakBytes is the high-water mark of the total footprint (stored
	// states + watched set) — the number benchmark trajectories track.
	PeakBytes int64
	// SoftWatermarkHits counts upward crossings of the soft budget
	// watermark (zero without a budget).
	SoftWatermarkHits int64
}

// Stats returns a snapshot of the model.
func (m *Model) Stats() Stats {
	return Stats{
		StoredBytes:        m.storedBytes,
		SwapBytes:          m.swapBytes,
		SharedVisitedBytes: m.visitedBytes(),
		PeakBytes:          m.peakBytes,
		SoftWatermarkHits:  m.softHits,
	}
}

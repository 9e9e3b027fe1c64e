package stream

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Heatmap aggregates crash-point verdicts into a (window op, write
// index) grid: each cell counts how many probes of that op crashed
// after that many writes and landed on each verdict. Rows are ops,
// columns write indices — one glance shows which recovery paths a
// target actually exercised and where its bugs cluster. Methods are
// safe for concurrent use and safe on a nil receiver.
type Heatmap struct {
	mu     sync.Mutex
	writes int // guarded by mu; max writes observed in any window, for column extent
	// cells holds the counts by value: a new cell is a map slot, not an
	// allocation of its own.
	cells map[heatKey]heatCounts // guarded by mu
}

type heatKey struct {
	op    string
	write int
}

type heatCounts struct {
	b0, b1, fsck, bug int64
}

// NewHeatmap returns an empty heatmap.
func NewHeatmap() *Heatmap {
	return &Heatmap{cells: make(map[heatKey]heatCounts)}
}

// Record adds one verdict for the crash point at (op, write). The
// writes argument is the window's total write count, tracked for the
// column extent. Unknown verdict strings are counted as bugs — a
// misjudged point must never vanish from the map. No-op on nil.
func (h *Heatmap) Record(op string, write, writes int, verdict string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if writes > h.writes {
		h.writes = writes
	}
	k := heatKey{op, write}
	c := h.cells[k]
	switch verdict {
	case VerdictB0:
		c.b0++
	case VerdictB1:
		c.b1++
	case VerdictFsckRepaired:
		c.fsck++
	default:
		c.bug++
	}
	h.cells[k] = c
	h.mu.Unlock()
}

// Merge folds other's cells into h (used by swarm merge). Writes and
// the cells come from one snapshot of other. No-op when either side is
// nil.
func (h *Heatmap) Merge(other *Heatmap) {
	if h == nil || other == nil {
		return
	}
	snap := other.Snapshot()
	h.mu.Lock()
	if snap.Writes > h.writes {
		h.writes = snap.Writes
	}
	for _, cell := range snap.Cells {
		k := heatKey{cell.Op, cell.Write}
		c := h.cells[k]
		c.b0 += cell.B0
		c.b1 += cell.B1
		c.fsck += cell.FsckRepaired
		c.bug += cell.Bug
		h.cells[k] = c
	}
	h.mu.Unlock()
}

// HeatmapCell is one (op, write index) cell's verdict tallies. Zero
// counts are omitted from JSON, so grep'ing the artifact for `"bug"`
// finds exactly the cells that hold one.
type HeatmapCell struct {
	Op           string `json:"op"`
	Write        int    `json:"write"`
	B0           int64  `json:"b0,omitempty"`
	B1           int64  `json:"b1,omitempty"`
	FsckRepaired int64  `json:"fsck_repaired,omitempty"`
	Bug          int64  `json:"bug,omitempty"`
}

// HeatmapSnapshot is the serializable heatmap: cells sorted by
// (op, write) so the artifact is byte-deterministic.
type HeatmapSnapshot struct {
	// Writes is the widest crash window observed (column extent).
	Writes int `json:"writes"`
	// Cells lists every probed (op, write) cell in (op, write) order.
	Cells []HeatmapCell `json:"cells"`
}

// Snapshot returns the heatmap's cells in deterministic (op, write)
// order. Zero value on nil.
func (h *Heatmap) Snapshot() HeatmapSnapshot {
	if h == nil {
		return HeatmapSnapshot{}
	}
	h.mu.Lock()
	snap := HeatmapSnapshot{Writes: h.writes}
	for k, c := range h.cells {
		snap.Cells = append(snap.Cells, HeatmapCell{
			Op:           k.op,
			Write:        k.write,
			B0:           c.b0,
			B1:           c.b1,
			FsckRepaired: c.fsck,
			Bug:          c.bug,
		})
	}
	h.mu.Unlock()
	sort.Slice(snap.Cells, func(i, j int) bool {
		if snap.Cells[i].Op != snap.Cells[j].Op {
			return snap.Cells[i].Op < snap.Cells[j].Op
		}
		return snap.Cells[i].Write < snap.Cells[j].Write
	})
	return snap
}

// Bugs reports the total bug-verdict count across all cells. Zero on
// nil.
func (h *Heatmap) Bugs() int64 {
	var n int64
	for _, c := range h.Snapshot().Cells {
		n += c.Bug
	}
	return n
}

// WriteTable renders the heatmap as a text grid: one row per op, one
// column per write index, each cell a single glyph for the worst
// verdict recorded there — 'B' bug, '1' b1, '0' b0, 'r' fsck-repaired,
// '.' never probed. Severity wins when a cell mixes verdicts, so a
// single bug never hides behind thousands of clean recoveries.
func (s HeatmapSnapshot) WriteTable(w io.Writer) {
	if len(s.Cells) == 0 {
		fmt.Fprintln(w, "crash heatmap: no crash points probed")
		return
	}
	grid := make(map[heatKey]byte)
	opW := len("op")
	var ops []string
	for _, c := range s.Cells {
		k := heatKey{c.Op, c.Write}
		if _, seen := grid[k]; !seen {
			found := false
			for _, op := range ops {
				if op == c.Op {
					found = true
					break
				}
			}
			if !found {
				ops = append(ops, c.Op)
				if len(c.Op) > opW {
					opW = len(c.Op)
				}
			}
		}
		glyph := byte('.')
		switch {
		case c.Bug > 0:
			glyph = 'B'
		case c.B1 > 0:
			glyph = '1'
		case c.B0 > 0:
			glyph = '0'
		case c.FsckRepaired > 0:
			glyph = 'r'
		}
		if worse(glyph, grid[k]) {
			grid[k] = glyph
		}
	}
	fmt.Fprintf(w, "crash heatmap: rows = ops, cols = write index 0..%d\n", s.Writes-1)
	fmt.Fprintln(w, "  cell: B=bug 1=post-op 0=pre-op r=fsck-repaired .=unprobed")
	for _, op := range ops {
		fmt.Fprintf(w, "  %-*s ", opW, op)
		for i := 0; i < s.Writes; i++ {
			g := grid[heatKey{op, i}]
			if g == 0 {
				g = '.'
			}
			fmt.Fprintf(w, "%c", g)
		}
		fmt.Fprintln(w)
	}
}

// worse reports whether glyph a outranks b in severity (B > 1 > 0 > r).
func worse(a, b byte) bool {
	rank := func(g byte) int {
		switch g {
		case 'B':
			return 4
		case '1':
			return 3
		case '0':
			return 2
		case 'r':
			return 1
		}
		return 0
	}
	return rank(a) > rank(b)
}

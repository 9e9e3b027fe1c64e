// Package visited implements the model checker's visited-state store
// as a family of interchangeable table backends spanning Spin's
// fidelity spectrum (§3 of the Spin book's bitstate chapter, and the
// paper's "reduction of memory use" axis):
//
//   - exact: the full table — 16-byte abstract state keys with the
//     shallowest expansion depth. No omissions; supports export for
//     resume and depth-aware eviction.
//   - compact: Wolper/Leroy hash compaction — a 64-bit fingerprint per
//     state instead of the full key. Two distinct states colliding on a
//     fingerprint silently merge; the omission probability follows the
//     birthday bound n²/2⁶⁵.
//   - bitstate: Holzmann's supertrace — k bits in a fixed-size Bloom
//     array. RAM is constant no matter how many states arrive; the
//     omission probability is the Bloom false-positive rate
//     (1-e^(-kn/m))^k. No depths are kept, so depth-bounded
//     re-expansion is also given up (part of the fidelity loss).
//
// All three backends key off the same 64-bit fingerprint derivation
// (bitstate derives its k bit positions from the fingerprint alone), so
// a live exact→compact→bitstate migration preserves membership: a state
// the exact table knew is never reported novel after a downgrade.
//
// A table is plain data. Set puts one behind one mutex, and that is the
// only synchronisation a run or a swarm's workers need: a visit is a
// map operation, one per explored op, about a hundredth of what the op
// costs.
package visited

import (
	"encoding/binary"
	"fmt"

	"mcfs/internal/abstraction"
	"mcfs/internal/memmodel"
)

// Fidelity is a table's matching precision. The zero value is exact;
// higher values admit omissions (states wrongly matched as seen and
// therefore never explored).
type Fidelity int

const (
	// FidelityExact matches on full abstract states: no omissions.
	FidelityExact Fidelity = iota
	// FidelityCompact matches on 64-bit fingerprints: omissions from
	// fingerprint collisions (birthday-bounded).
	FidelityCompact
	// FidelityBitstate matches on k Bloom bits: omissions from bit-array
	// saturation, RAM fixed.
	FidelityBitstate
)

func (f Fidelity) String() string {
	switch f {
	case FidelityExact:
		return "exact"
	case FidelityCompact:
		return "compact"
	case FidelityBitstate:
		return "bitstate"
	}
	return fmt.Sprintf("fidelity(%d)", int(f))
}

// Entry is one exported table entry: an abstract state and the
// shallowest depth it was expanded at.
type Entry struct {
	State abstraction.State
	Depth int
}

// ErrNoExport is returned by Export on backends that discard the full
// state keys: a reduced-fidelity table cannot reconstruct a ResumeState
// and must refuse rather than silently emit a partial one.
type ErrNoExport struct {
	Mode Fidelity
}

func (e ErrNoExport) Error() string {
	return fmt.Sprintf("visited: %s table cannot export a resume state (full state keys discarded)", e.Mode)
}

// Table is one visited-state backend. Implementations are not
// synchronised: a Set serialises every access to its table.
type Table interface {
	// Visit records that a worker reached st at depth and decides what
	// the worker should do: novel reports whether no worker had ever
	// seen st, expand whether to descend (novel, or — where depths are
	// kept — previously expanded only strictly deeper).
	Visit(st abstraction.State, depth int) (novel, expand bool)
	// Len is the number of entries (bitstate: distinct inserts observed).
	Len() int64
	// Bytes is the table's modeled memory footprint.
	Bytes() int64
	// Fidelity identifies the backend's matching precision.
	Fidelity() Fidelity
	// Omission estimates the probability that at least the average
	// lookup wrongly matched — Spin's "hash factor" style honesty
	// number. Exact tables return 0.
	Omission() float64
	// Export snapshots the table as entries sorted by state, or returns
	// ErrNoExport where the full keys are gone.
	Export() ([]Entry, error)
}

// Kind names a backend on the command line.
type Kind string

const (
	KindExact    Kind = "exact"
	KindCompact  Kind = "compact"
	KindBitstate Kind = "bitstate"
)

// DefaultBitstateBytes sizes the Bloom array when the caller does not:
// 8 MB ≈ Spin's -w26 at 8 bits per state for ~8M states.
const DefaultBitstateBytes = 8 << 20

// NewTable builds a backend by kind. bitstateBytes sizes the bitstate
// array (DefaultBitstateBytes when <= 0); other kinds ignore it.
func NewTable(kind Kind, bitstateBytes int64) (Table, error) {
	switch kind {
	case KindExact, "":
		return NewExact(), nil
	case KindCompact:
		return NewCompact(), nil
	case KindBitstate:
		return NewBitstate(bitstateBytes, 0), nil
	}
	return nil, fmt.Errorf("visited: unknown table kind %q (want exact, compact, or bitstate)", kind)
}

// ExactEntryBytes is the modeled footprint of one exact entry — the
// same constant the memory model charges for shared swarm tables.
const ExactEntryBytes = memmodel.SharedVisitedEntryBytes

// CompactEntryBytes is the modeled footprint of one hash-compaction
// entry: an 8-byte fingerprint, a 4-byte depth, and reduced bucket
// overhead.
const CompactEntryBytes = 16

// fingerprint folds a 16-byte abstract state to the 64-bit key every
// backend agrees on. Both halves participate so compaction keeps the
// full hash's entropy.
func fingerprint(st abstraction.State) uint64 {
	return binary.LittleEndian.Uint64(st[0:8]) ^ binary.LittleEndian.Uint64(st[8:16])
}

// splitmix64 is the finalizer used to derive independent hash streams
// from one fingerprint (bitstate's double hashing).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

package visited

import (
	"math"

	"mcfs/internal/abstraction"
)

// DefaultBitstateHashes is Holzmann's recommended k for supertrace.
const DefaultBitstateHashes = 3

// minBitstateBytes keeps a degenerate array from saturating instantly.
const minBitstateBytes = 512

// Bitstate is Holzmann's supertrace: k bits per state in a fixed-size
// Bloom array. The footprint never grows — the omission probability
// does, as (1-e^(-kn/m))^k with n inserts over m bits. No depths are
// kept, so the depth-bounded re-expansion rule is forfeited along with
// exactness: a matched state is never re-expanded. The k bit positions
// derive from the 64-bit fingerprint alone (double hashing), so a
// migration from exact or compact replays fingerprints and preserves
// membership.
type Bitstate struct {
	bits  []uint64
	mBits uint64
	k     int
	n     int64 // distinct inserts observed (novel count)
}

// NewBitstate builds a Bloom table over the given byte budget
// (DefaultBitstateBytes when <= 0, floored at a sane minimum) with k
// hash functions (DefaultBitstateHashes when <= 0).
func NewBitstate(bytes int64, k int) *Bitstate {
	if bytes <= 0 {
		bytes = DefaultBitstateBytes
	}
	if bytes < minBitstateBytes {
		bytes = minBitstateBytes
	}
	if k <= 0 {
		k = DefaultBitstateHashes
	}
	words := bytes / 8
	return &Bitstate{
		bits:  make([]uint64, words),
		mBits: uint64(words) * 64,
		k:     k,
	}
}

// visitFP sets the k bits for one fingerprint — double hashing: two
// independent streams from the splitmix64 finalizer, the stride forced
// odd so every probe is distinct; novel reports whether any bit was
// previously clear.
func (t *Bitstate) visitFP(fp uint64) (novel bool) {
	h1 := splitmix64(fp)
	h2 := splitmix64(h1) | 1
	for i := 0; i < t.k; i++ {
		pos := (h1 + uint64(i)*h2) % t.mBits
		word, mask := pos/64, uint64(1)<<(pos%64)
		if t.bits[word]&mask == 0 {
			t.bits[word] |= mask
			novel = true
		}
	}
	if novel {
		t.n++
	}
	return novel
}

// Visit implements Table. With no depths, expand == novel: a matched
// state is pruned outright.
func (t *Bitstate) Visit(st abstraction.State, depth int) (novel, expand bool) {
	novel = t.visitFP(fingerprint(st))
	return novel, novel
}

// Len implements Table: distinct inserts observed (collisions fold).
func (t *Bitstate) Len() int64 { return t.n }

// Bytes implements Table: the array is the whole footprint, fixed at
// construction.
func (t *Bitstate) Bytes() int64 { return int64(len(t.bits)) * 8 }

// Fidelity implements Table.
func (t *Bitstate) Fidelity() Fidelity { return FidelityBitstate }

// Omission implements Table: the Bloom false-positive rate for the
// current fill, p = (1-e^(-kn/m))^k.
func (t *Bitstate) Omission() float64 {
	n := float64(t.n)
	if n == 0 {
		return 0
	}
	m := float64(t.mBits)
	return math.Pow(1-math.Exp(-float64(t.k)*n/m), float64(t.k))
}

// Export implements Table: bit positions cannot be inverted to states.
func (t *Bitstate) Export() ([]Entry, error) {
	return nil, ErrNoExport{Mode: FidelityBitstate}
}

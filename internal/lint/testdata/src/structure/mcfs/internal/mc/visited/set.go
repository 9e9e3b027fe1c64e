// Package visited stands in for the visited set: one map behind one
// mutex. It brings back an atomic and a third lock.
package visited

import (
	"sync"
	"sync/atomic" // want "import of sync/atomic: the visited set is"
)

// Set is the visited set.
type Set struct {
	mu   sync.Mutex
	seen map[uint64]bool
	hits atomic.Int64
}

// Governor degrades the set under a memory budget.
type Governor struct {
	mu sync.Mutex
}

var evictMu sync.Mutex // want "evictMu sync\.Mutex: the visited set and"

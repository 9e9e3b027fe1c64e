// Package abstraction stands in for the abstraction walk, which builds
// paths that need no cleaning, in fresh memory or in a Memo's.
package abstraction

import (
	"strings"

	"mcfs/internal/vfs"
)

// child cleans a path the walk built itself.
func child(dir, name string) string {
	return vfs.JoinPath(dir, name) // want "mcfs/internal/vfs\.JoinPath: the abstraction walk builds"
}

// report renders a diff: Join is allowed here.
func report(lines []string) string { return strings.Join(lines, "\n") }

func fields(p string) []string {
	return strings.SplitAfterN(p, "/", 2) // want "strings\.SplitAfterN: a path is consumed"
}

// Memo is a walk's kept memory.
type Memo struct{}

// Snapshot walks in m's memory.
func (m *Memo) Snapshot(dst []string) []string { return dst }

// Snapshot walks in fresh memory.
func Snapshot() []string { return nil }

// Hash walks in fresh memory and hashes.
func Hash() uint64 { return 0 }

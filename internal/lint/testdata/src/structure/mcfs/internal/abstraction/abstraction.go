// Package abstraction stands in for the abstraction walk, which builds
// paths that need no cleaning.
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

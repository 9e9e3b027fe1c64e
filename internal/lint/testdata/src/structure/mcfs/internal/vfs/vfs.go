// Package vfs stands in for path resolution: a path is consumed a
// component at a time. It brings back a split, under another name.
package vfs

import str "strings"

// JoinPath joins and cleans path components.
func JoinPath(parts ...string) string { return "/" + parts[len(parts)-1] }

// BaseName is a deleted path helper.
func BaseName(p string) string { // want "BaseName: a path is consumed"
	parts := str.Split(p, "/") // want "strings\.Split: a path is consumed"
	return parts[len(parts)-1]
}

// DirEntry is one listed name.
type DirEntry struct{ Name string }

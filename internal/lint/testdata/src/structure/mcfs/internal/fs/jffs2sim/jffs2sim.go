// Package jffs2sim stands in for the jffs2 mount scan, which parses the
// bytes the MTD lends in place, its replay, which grows a file's content
// in place, and the memo copy, which copies into arrays the destination
// has. It brings back a copy, a reflective sort, fresh content arrays, and
// a listing in a slice of its own.
package jffs2sim

import (
	"sort"

	"mcfs/internal/vfs"
)

type blockScan struct{ nodes []int }

// scan copies the block it parses: a mutant.
func (b *blockScan) scan(buf []byte) {
	own := make([]byte, len(buf)) // want "make\(\[\]byte, len\(buf\)\) in the jffs2 mount scan, replay or memo copy: a node is a"
	copy(own, buf)
	sort.SliceStable(b.nodes, func(i, j int) bool { return b.nodes[i] < b.nodes[j] }) // want "sort\.SliceStable: use slices\.SortFunc"
}

// MountCached scans every block.
func MountCached(blocks [][]byte) []int {
	var b blockScan
	for _, blk := range blocks {
		b.scan(blk)
	}
	return b.nodes
}

type inodeInfo struct{ content []byte }

// writeAt grows content into a fresh array on every extension: a mutant.
func (nd *inodeInfo) writeAt(off int, data []byte) {
	if end := off + len(data); end > len(nd.content) {
		nc := make([]byte, end) // want "make\(\[\]byte, end\) in the jffs2 mount scan, replay or memo copy: a node is a"
		copy(nc, nd.content)
		nd.content = nc
	}
	copy(nd.content[off:], data)
}

// copyFrom copies content into a fresh array every time: a mutant.
func (nd *inodeInfo) copyFrom(src *inodeInfo) {
	nd.content = append(make([]byte, 0, len(src.content)), src.content...) // want "make\(\[\]byte, 0, len\(src\.content\)\) in the jffs2 mount scan, replay or memo copy: a node is a"
}

func encode(n int) []byte { return make([]byte, n) } // outside the scan: allowed

// FS is a mounted file system.
type FS struct{ names []string }

// ReadDir makes the slice it lists into: a mutant.
func (f *FS) ReadDir(dst []vfs.DirEntry) []vfs.DirEntry {
	out := make([]vfs.DirEntry, 0, len(f.names)) // want "make\(\[\]vfs\.DirEntry, 0, len\(f\.names\)\) in a ReadDir: a listing appends"
	for _, n := range f.names {
		out = append(out, vfs.DirEntry{Name: n})
	}
	return append(dst, out...)
}

// names makes a listing outside a ReadDir: allowed.
func names(n int) []vfs.DirEntry { return make([]vfs.DirEntry, n) }

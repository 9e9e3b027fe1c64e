// Package jffs2sim stands in for the jffs2 mount scan, which parses the
// bytes the MTD lends in place. It brings back a copy and a reflective
// sort.
package jffs2sim

import "sort"

type blockScan struct{ nodes []int }

// scan copies the block it parses: a mutant.
func (b *blockScan) scan(buf []byte) {
	own := make([]byte, len(buf)) // want "make\(\[\]byte, len\(buf\)\) in the jffs2 mount scan: a node is a"
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

func encode(n int) []byte { return make([]byte, n) } // outside the scan: allowed

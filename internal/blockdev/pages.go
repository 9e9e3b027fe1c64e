package blockdev

import (
	"bytes"
	"math/bits"
	"slices"
)

// store is a medium's bytes as copy-on-write pages, the way brd keeps a
// RAM disk: a page table whose entries are nil while their page is
// blank (every byte the medium's erased value: 0x00 on a disk, 0xFF on
// flash) and point at a page of the medium's own slabs once a write
// makes it hold something else. A fresh medium is all blank and holds
// no page, whatever its size.
//
// The undo frames (undo.go) hold pages, not copies: the first change to
// a page under the newest frame hands the page itself to the frame and
// gives the table a copy (none for a blank page, nor for one the change
// overwrites whole), and a rewind puts the frames' pages back. So a page
// in the table belongs to the table alone, and may be changed in place.
//
// Pages come from slabs, each as large as every page in use when it is
// cut (minSlab at least), and return to a free list when the table or a
// frame lets them go; the last frame to close lends the free list to a
// spare (undo.go), so a collection reclaims what no page still in the
// table shares a slab with.
//
// The owning device's lock guards the store.
type store struct {
	size  int64
	page  int  // bytes per page, a power of two
	shift uint // log2(page)
	blank byte // the erased value
	// table[p] is page p's bytes; nil means a blank page. The medium's
	// last page may be partial: the bytes past size stay blank.
	table   [][]byte
	present int      // pages in the table
	free    [][]byte // pages nothing holds, each page bytes long
	undo    undoLog
}

// minSlab is the fewest pages a slab is cut into.
const minSlab = 4

func newStore(size int64, page int, blank byte) store {
	return store{size: size, page: page, shift: uint(bits.TrailingZeros(uint(page))), blank: blank,
		table: make([][]byte, (size+int64(page)-1)/int64(page))}
}

// blankRuns holds a run of each erased value, for isBlank to compare
// against: bytes.Equal is the memory compare, many bytes at a time.
var blankRuns = [2][cachePage]byte{1: [cachePage]byte(bytes.Repeat([]byte{0xFF}, cachePage))}

// isBlank reports whether every byte of b is v, 0x00 or 0xFF.
func isBlank(b []byte, v byte) bool {
	run := blankRuns[v&1][:]
	for len(b) > 0 {
		n := min(len(b), len(run))
		if !bytes.Equal(b[:n], run[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// fill sets every byte of b to v.
func fill(b []byte, v byte) {
	if v == 0 {
		clear(b)
		return
	}
	if len(b) == 0 {
		return
	}
	b[0] = v
	for j := 1; j < len(b); j *= 2 {
		copy(b[j:], b[:j])
	}
}

// alloc returns a page from the free list, whatever bytes it holds:
// taking the last frame's spare back, or cutting a slab, when the list
// is empty.
func (s *store) alloc() []byte {
	if len(s.free) == 0 && (!s.reclaim() || len(s.free) == 0) {
		inUse := s.present + s.undo.held
		n := max(minSlab, inUse)
		slab := make([]byte, n*s.page)
		// Room for every page there is, so that releasing never regrows
		// the list.
		s.free = slices.Grow(s.free, inUse+n)
		for i := 0; i < n; i++ {
			s.free = append(s.free, slab[i*s.page:(i+1)*s.page:(i+1)*s.page])
		}
	}
	pg := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return pg
}

// release returns a page nothing holds any more to the free list.
func (s *store) release(pg []byte) {
	if pg != nil {
		s.free = append(s.free, pg)
	}
}

// clone returns a page of the free list holding pg's bytes; nil for nil.
func (s *store) clone(pg []byte) []byte {
	if pg == nil {
		return nil
	}
	c := s.alloc()
	copy(c, pg)
	return c
}

// put makes pg page p, letting go of what the table held there.
func (s *store) put(p int64, pg []byte) {
	if old := s.table[p]; old != nil {
		s.release(old)
		s.present--
	}
	if s.table[p] = pg; pg != nil {
		s.present++
	}
}

// own returns page p ready to be changed in place: saved for the newest
// frame, private to the table, present. With keep the page holds its
// bytes; without, whatever a free page held (the caller overwrites all
// of it).
func (s *store) own(p int64, keep bool) []byte {
	old := s.table[p]
	if !s.undo.save(p, old) && old != nil {
		return old
	}
	// The frame took old, or there is none: the table needs a page.
	pg := s.alloc()
	switch {
	case !keep:
	case old != nil:
		copy(pg, old)
	default:
		fill(pg, s.blank)
	}
	if s.table[p] = pg; old == nil {
		s.present++
	}
	return pg
}

// drop makes page p blank, saved for the newest frame first.
func (s *store) drop(p int64) {
	old := s.table[p]
	if !s.undo.save(p, old) {
		s.release(old) // no frame took it
	}
	if old != nil {
		s.table[p] = nil
		s.present--
	}
}

// settle lets page p go if it has become blank. The table's pages are
// its own, so nothing else holds it.
func (s *store) settle(p int64) {
	if pg := s.table[p]; pg != nil && isBlank(pg, s.blank) {
		s.table[p] = nil
		s.present--
		s.release(pg)
	}
}

// locate returns the page holding byte off and the byte's place in it.
func (s *store) locate(off int64) (p int64, lo int) {
	return off >> s.shift, int(off & int64(s.page-1))
}

// span calls f for every page [off, off+n) overlaps, with the range's
// first byte within the page and the bytes of the range it holds. The
// caller has checked the range.
func (s *store) span(off int64, n int, f func(p int64, lo, n int)) {
	for p, lo := s.locate(off); n > 0; p, lo = p+1, 0 {
		k := min(n, s.page-lo)
		f(p, lo, k)
		n -= k
	}
}

// read copies the bytes at off into dst, as far as the medium reaches.
func (s *store) read(dst []byte, off int64) {
	dst = dst[:min(int64(len(dst)), s.size-off)]
	for p, lo := s.locate(off); len(dst) > 0; p, lo = p+1, 0 {
		k := min(len(dst), s.page-lo)
		if pg := s.table[p]; pg != nil {
			copy(dst[:k], pg[lo:])
		} else {
			fill(dst[:k], s.blank)
		}
		dst = dst[k:]
	}
}

// write lands src at off, each page saved for the newest frame before
// it changes. A blank page that src leaves blank takes no page, and a
// page src blanks whole lets its page go. A page that src blanks in
// part keeps it: finding out would cost a scan of the page per write.
func (s *store) write(src []byte, off int64) {
	for p, lo := s.locate(off); len(src) > 0; p, lo = p+1, 0 {
		seg := src[:min(len(src), s.page-lo)]
		whole := len(seg) == s.page
		switch pg := s.table[p]; {
		case (pg == nil || whole) && isBlank(seg, s.blank):
			s.drop(p)
		default:
			copy(s.own(p, !whole)[lo:], seg)
		}
		src = src[len(seg):]
	}
}

// wipe sets the n bytes at off to the erased value.
func (s *store) wipe(off int64, n int) {
	s.span(off, n, func(p int64, lo, k int) {
		switch {
		case k == s.page || s.table[p] == nil:
			s.drop(p)
		default:
			fill(s.own(p, true)[lo:lo+k], s.blank)
			s.settle(p)
		}
	})
}

// touch saves every page [off, off+n) overlaps for the newest frame, as
// a write that changes nothing would.
func (s *store) touch(off int64, n int) {
	s.span(off, n, func(p int64, _, _ int) {
		if s.table[p] == nil {
			s.undo.save(p, nil)
		} else {
			s.own(p, true)
		}
	})
}

// flip inverts bit b of the byte at off.
func (s *store) flip(off int64, b uint) {
	p, lo := s.locate(off)
	s.own(p, true)[lo] ^= 1 << b
	s.settle(p)
}

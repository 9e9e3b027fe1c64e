package blockdev

import (
	"fmt"
	"math"

	"mcfs/internal/fault"
	"mcfs/internal/spare"
)

// ErrNoFrame is returned for a rewind to a key no open undo frame holds.
var ErrNoFrame = fmt.Errorf("blockdev: no undo frame under that key")

// undoLog is a medium's undo state: what OpenFrame, RewindFrame and
// CloseFrame are made of on Disk and MTD alike.
//
// A frame is a mark in one growing log of entries, each the pre-image of
// one page: the page itself, which the table gave up (pages.go), or nil
// for a page that was blank. While any frame is open, every change to a
// page first calls save, which logs the page once per page per frame;
// rewinding to a frame puts the pages logged since its mark back into
// the table, newest first, and truncates the log there. So a checkpoint
// costs nothing until something is written, and a restore costs the
// pages written, not the image, and copies none of them. Frames nest: a
// rewind closes its frame and every younger one, and puts back the
// stamps those frames overwrote, so the frame left newest skips the
// pages it saved before they opened. A frame closed without a rewind
// leaves its pre-images to the next older frame, which still needs them;
// closing the newest frame also stamps its pages with the next older
// frame's epoch, since that frame now holds a pre-image of each. The
// last frame to close releases every page the log holds, and lets the
// log's arrays, the stamp index and the free page list go as a spare,
// which the next frame (or the next page taken) takes back unless a
// collection has reclaimed it; epochs keep counting across that, so no
// stamp left in a reused index passes for a new frame's. A frame can
// also be reverted in part (revert): the bytes under some regions go
// back to its pre-images, the frame stays open and keeps them.
//
// The owning device's lock guards the log.
type undoLog struct {
	frames  []undoFrame // open frames, oldest first
	entries []undoEntry // the pre-images, in save order
	held    int         // entries whose pre-image is a page, not blank
	// saved[p] is the epoch of the frame that holds a pre-image of page
	// p: the newest frame skips pages stamped with its own epoch.
	saved []uint32
	epoch uint32
	// spare holds the arrays above, emptied, and the store's free list
	// while no frame is open.
	spare spare.Slot[undoArrays]
}

// undoArrays is what a medium with no frame open lets go of.
type undoArrays struct {
	frames  []undoFrame
	entries []undoEntry
	saved   []uint32
	free    [][]byte
}

type undoFrame struct {
	key   uint64
	mark  int // len(entries) when the frame opened
	epoch uint32
}

type undoEntry struct {
	page int32
	prev uint32 // the page's stamp before the save
	pre  []byte // the page's bytes when saved; nil while it was blank
}

// reclaim takes back what the last frame to close let go of, unless a
// collection took it first.
func (s *store) reclaim() bool {
	a, ok := s.undo.spare.Take()
	if ok {
		s.undo.frames, s.undo.entries, s.undo.saved, s.free = a.frames, a.entries, a.saved, a.free
	}
	return ok
}

// open starts a frame under key.
func (s *store) open(key uint64) {
	u := &s.undo
	if u.saved == nil && !s.reclaim() {
		// A first frame sizes the log for a session's usual nesting and
		// write set, so that it does not regrow from nothing.
		u.saved = make([]uint32, len(s.table))
		u.frames, u.entries = make([]undoFrame, 0, 4), make([]undoEntry, 0, 32)
	}
	if u.epoch == math.MaxUint32 {
		// Wrapping: forget every stamp, the ones a rewind would put back
		// too, and number the open frames afresh, so that no old epoch
		// passes for a new frame's. Open frames merely save some pages
		// twice.
		clear(u.saved)
		for i := range u.entries {
			u.entries[i].prev = 0
		}
		for i := range u.frames {
			u.frames[i].epoch = uint32(i + 1)
		}
		u.epoch = uint32(len(u.frames))
	}
	u.epoch++
	u.frames = append(u.frames, undoFrame{key: key, mark: len(u.entries), epoch: u.epoch})
}

// find returns the index of the newest open frame under key, or -1.
func (u *undoLog) find(key uint64) int {
	for i := len(u.frames) - 1; i >= 0; i-- {
		if u.frames[i].key == key {
			return i
		}
	}
	return -1
}

// save logs pg as page p's pre-image if the newest frame holds none yet,
// and reports whether it did: the frame then owns pg, and the table must
// not change it. With no frame open it does nothing.
func (u *undoLog) save(p int64, pg []byte) bool {
	if len(u.frames) == 0 {
		return false
	}
	epoch := u.frames[len(u.frames)-1].epoch
	if u.saved[p] == epoch {
		return false
	}
	u.entries = append(u.entries, undoEntry{page: int32(p), prev: u.saved[p], pre: pg})
	u.saved[p] = epoch
	if pg != nil {
		u.held++
	}
	return true
}

// rewind puts the pages and the stamps back to where they were when
// frame i (an index from find) opened, and closes that frame and every
// younger one.
func (s *store) rewind(i int) {
	u := &s.undo
	mark := u.frames[i].mark
	for r := len(u.entries) - 1; r >= mark; r-- {
		e := &u.entries[r]
		s.put(int64(e.page), e.pre)
		if e.pre != nil {
			u.held--
		}
		u.saved[e.page] = e.prev
		*e = undoEntry{}
	}
	u.entries = u.entries[:mark]
	s.truncate(i)
}

// cacheAligned widens a region to the cache pages it overlaps: what a
// revert takes back.
func cacheAligned(r fault.Region) (lo, hi int64) {
	first, last := pageRange(r.Off, int(r.Len))
	return first * cachePage, last * cachePage
}

// under reports whether a region's cache pages overlap page p of ps
// bytes.
func under(regions []fault.Region, p int64, ps int) bool {
	a := p * int64(ps)
	for _, r := range regions {
		if lo, hi := cacheAligned(r); r.Len > 0 && lo < a+int64(ps) && a < hi {
			return true
		}
	}
	return false
}

// checkRegions names the first region that leaves a medium of size bytes.
func checkRegions(regions []fault.Region, size int64, name string) error {
	for _, r := range regions {
		if r.Len > 0 && (r.Off < 0 || r.Off+r.Len > size) {
			return fmt.Errorf("%w: region off=%d len=%d size=%d dev=%s", ErrOutOfRange, r.Off, r.Len, size, name)
		}
	}
	return nil
}

// revert is RevertFrame on either medium, short of the cache: a rewind
// confined to the cache pages regions overlap, with key's frame left
// open. Those bytes go back to what they were when the frame opened; the
// other saved pages stay as they are, in the table and in the log. Every
// pre-image stays in the log with its stamp, and the table takes a copy
// of it: a reverted page holds its pre-image again, so the frame's entry
// for it is as good as before and the next write to the page saves
// nothing. Frames younger than key's are closed, their entries left
// behind as close leaves them; entries are taken newest first, so the
// oldest entry of a page wins. Nothing moves unless key holds a frame
// and every region lies inside the medium.
func (s *store) revert(key uint64, regions []fault.Region, name string) error {
	u := &s.undo
	i := u.find(key)
	if i < 0 {
		return fmt.Errorf("%w: key=%d dev=%s", ErrNoFrame, key, name)
	}
	if err := checkRegions(regions, s.size, name); err != nil {
		return err
	}
	ps := int64(s.page)
	for r := len(u.entries) - 1; r >= u.frames[i].mark; r-- {
		e := u.entries[r]
		p := int64(e.page)
		a, b := p*ps, min(p*ps+ps, s.size)
	regions:
		for _, reg := range regions {
			lo, hi := cacheAligned(reg)
			lo, hi = max(lo, a), min(hi, b)
			switch cur := s.table[p]; {
			case reg.Len <= 0 || lo >= hi:
			case lo == a && hi == b && cur != nil && e.pre != nil:
				copy(cur, e.pre)
				break regions
			case lo == a && hi == b:
				s.put(p, s.clone(e.pre))
				break regions
			case e.pre == nil && cur == nil: // blank, and blank it stays
			default:
				if cur == nil {
					cur = s.alloc()
					fill(cur, s.blank)
					s.table[p] = cur
					s.present++
				}
				if e.pre == nil {
					fill(cur[lo-a:hi-a], s.blank)
				} else {
					copy(cur[lo-a:hi-a], e.pre[lo-a:])
				}
				s.settle(p)
			}
		}
	}
	u.frames = u.frames[:i+1]
	return nil
}

// patch is Patch on either medium: the writes' bytes land in order, each
// page saved first. Nothing lands unless every write lies inside the
// medium.
func (s *store) patch(writes []fault.Write, name string) error {
	for _, w := range writes {
		if w.Off < 0 || w.Off+int64(len(w.Data)) > s.size {
			return fmt.Errorf("%w: patch off=%d len=%d size=%d dev=%s", ErrOutOfRange, w.Off, len(w.Data), s.size, name)
		}
	}
	for _, w := range writes {
		s.write(w.Data, w.Off)
	}
	return nil
}

// close drops key's frame without rewinding (a no-op for an unknown key).
// When it is the newest frame, the next older one takes over its stamps:
// for every page the closing frame saved, the older frame now holds a
// pre-image, its own or — for a page it never saved, which has not
// changed since it opened — the closing frame's.
func (s *store) close(key uint64) {
	u := &s.undo
	i := u.find(key)
	if i < 0 {
		return
	}
	if i > 0 && i == len(u.frames)-1 {
		epoch := u.frames[i-1].epoch
		for _, e := range u.entries[u.frames[i].mark:] {
			u.saved[e.page] = epoch
		}
	}
	u.frames = append(u.frames[:i], u.frames[i+1:]...)
	s.truncate(len(u.frames))
}

// truncate keeps the n oldest frames; with none left the log releases
// every page it holds and lets go of everything it allocated, with the
// free list, into its spare. The stamps stay in saved: every one is
// older than the next frame's epoch.
func (s *store) truncate(n int) {
	u := &s.undo
	if u.frames = u.frames[:n]; n > 0 {
		return
	}
	for i := range u.entries {
		s.release(u.entries[i].pre)
		u.entries[i] = undoEntry{}
	}
	u.spare.Put(undoArrays{u.frames, u.entries[:0], u.saved, s.free})
	*u = undoLog{epoch: u.epoch, spare: u.spare}
	s.free = nil
}

// stats reports the open frame count and the bytes of the pages the log
// holds.
func (u *undoLog) stats(page int) (frames, heldBytes int) {
	return len(u.frames), u.held * page
}

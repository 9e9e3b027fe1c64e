package blockdev

import (
	"fmt"

	"mcfs/internal/fault"
)

// undoPage is the granularity pre-images are saved at.
const undoPage = cachePage

// ErrNoFrame is returned for a rewind to a key no open undo frame holds.
var ErrNoFrame = fmt.Errorf("blockdev: no undo frame under that key")

// undoLog is a medium's copy-before-write undo state: what OpenFrame,
// RewindFrame and CloseFrame are made of on Disk and MTD alike.
//
// A frame is a mark in one growing arena of page pre-images. While any
// frame is open, every path that changes the medium's bytes first calls
// save, which copies the pages it is about to touch — once per page per
// frame — onto the end of the arena; rewinding to a frame copies the
// pre-images saved since its mark back, newest first, and truncates the
// arena there. So a checkpoint costs nothing until something is written,
// and a restore costs the write set, not the image. Frames nest: a rewind
// closes its frame and every younger one. A frame closed without a
// rewind leaves its pre-images to the next older frame, which still needs
// them. The last frame to close drops the arena. A frame can also be
// reverted in part (revert): the pages under some regions go back to its
// bytes and are forgotten, the frame stays open.
//
// The owning device's lock guards the log.
type undoLog struct {
	frames []undoFrame // open frames, oldest first
	pages  []int32     // page number of each saved pre-image, in save order
	arena  []byte      // the pre-images, undoPage bytes each, parallel to pages
	// saved[p] is the epoch of the frame that last saved page p: the
	// newest frame skips pages stamped with its own epoch.
	saved []uint32
	epoch uint32
}

type undoFrame struct {
	key   uint64
	mark  int // len(pages) when the frame opened
	epoch uint32
}

// open starts a frame under key for a medium of size bytes.
func (u *undoLog) open(key uint64, size int) {
	if u.saved == nil {
		u.saved = make([]uint32, (size+undoPage-1)/undoPage)
	}
	if u.epoch++; u.epoch == 0 {
		// Wrapped: forget every stamp rather than let an old one pass for
		// this frame's. Open frames merely save some pages twice.
		clear(u.saved)
		u.epoch = 1
	}
	u.frames = append(u.frames, undoFrame{key: key, mark: len(u.pages), epoch: u.epoch})
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

// save copies the pre-image of every page overlapping data[off:off+n]
// that the newest frame has not saved yet. Callers run it before they
// change those bytes; with no frame open it does nothing.
func (u *undoLog) save(data []byte, off int64, n int) {
	if len(u.frames) == 0 || n <= 0 {
		return
	}
	epoch := u.frames[len(u.frames)-1].epoch
	first, last := pageRange(off, n)
	for p := first; p < last; p++ {
		if u.saved[p] == epoch {
			continue
		}
		u.saved[p] = epoch
		u.pages = append(u.pages, int32(p))
		lo := p * undoPage
		hi := min(lo+undoPage, int64(len(data)))
		u.arena = append(u.arena, data[lo:hi]...)
		if short := undoPage - int(hi-lo); short > 0 { // the medium's last, partial page
			u.arena = append(u.arena, make([]byte, short)...)
		}
	}
}

// rewind puts data back to its bytes at the time frame i (an index from
// find) opened, and closes that frame and every younger one.
func (u *undoLog) rewind(i int, data []byte) {
	mark := u.frames[i].mark
	for r := len(u.pages) - 1; r >= mark; r-- {
		copy(data[int64(u.pages[r])*undoPage:], u.arena[r*undoPage:(r+1)*undoPage])
	}
	u.pages, u.arena = u.pages[:mark], u.arena[:mark*undoPage]
	u.truncate(i)
}

// pageUnder reports whether a region overlaps page p.
func pageUnder(regions []fault.Region, p int64) bool {
	for _, r := range regions {
		if first, last := pageRange(r.Off, int(r.Len)); r.Len > 0 && first <= p && p < last {
			return true
		}
	}
	return false
}

// checkRegions names the first region that leaves a medium of size bytes.
func checkRegions(regions []fault.Region, size int, name string) error {
	for _, r := range regions {
		if r.Len > 0 && (r.Off < 0 || r.Off+r.Len > int64(size)) {
			return fmt.Errorf("%w: region off=%d len=%d size=%d dev=%s", ErrOutOfRange, r.Off, r.Len, size, name)
		}
	}
	return nil
}

// revert is RevertFrame on either medium, short of the cache: a rewind
// confined to the pages regions overlap, with key's frame left open.
// Those pages go back to their bytes at the time the frame opened and
// their pre-images are forgotten, as if the frame had never seen them
// written; the other saved pages stay as they are, on the medium and in
// the log. Frames younger than key's are closed. Nothing moves unless key
// holds a frame and every region lies inside the medium.
func (u *undoLog) revert(key uint64, data []byte, regions []fault.Region, name string) error {
	i := u.find(key)
	if i < 0 {
		return fmt.Errorf("%w: key=%d dev=%s", ErrNoFrame, key, name)
	}
	if err := checkRegions(regions, len(data), name); err != nil {
		return err
	}
	mark := u.frames[i].mark
	for r := len(u.pages) - 1; r >= mark; r-- {
		if p := int64(u.pages[r]); pageUnder(regions, p) {
			copy(data[p*undoPage:], u.arena[r*undoPage:(r+1)*undoPage])
		}
	}
	keep := mark
	for r := mark; r < len(u.pages); r++ {
		if p := u.pages[r]; pageUnder(regions, int64(p)) {
			u.saved[p] = 0 // no frame's epoch: the next write saves the page again
			continue
		}
		u.pages[keep] = u.pages[r]
		copy(u.arena[keep*undoPage:(keep+1)*undoPage], u.arena[r*undoPage:])
		keep++
	}
	u.pages, u.arena = u.pages[:keep], u.arena[:keep*undoPage]
	u.frames = u.frames[:i+1]
	return nil
}

// patch is Patch on either medium: the writes' bytes land on data in
// order, pre-images saved first. Nothing lands unless every write lies
// inside the medium.
func (u *undoLog) patch(data []byte, writes []fault.Write, name string) error {
	for _, w := range writes {
		if w.Off < 0 || w.Off+int64(len(w.Data)) > int64(len(data)) {
			return fmt.Errorf("%w: patch off=%d len=%d size=%d dev=%s", ErrOutOfRange, w.Off, len(w.Data), len(data), name)
		}
	}
	for _, w := range writes {
		u.save(data, w.Off, len(w.Data))
		copy(data[w.Off:], w.Data)
	}
	return nil
}

// close drops key's frame without rewinding (a no-op for an unknown key).
func (u *undoLog) close(key uint64) {
	if i := u.find(key); i >= 0 {
		u.frames = append(u.frames[:i], u.frames[i+1:]...)
		u.truncate(len(u.frames))
	}
}

// truncate keeps the n oldest frames; with none left the log lets go of
// everything it allocated.
func (u *undoLog) truncate(n int) {
	if u.frames = u.frames[:n]; n == 0 {
		*u = undoLog{}
	}
}

// stats reports the open frame count and the arena's size in bytes.
func (u *undoLog) stats() (frames, arenaBytes int) {
	return len(u.frames), cap(u.arena)
}

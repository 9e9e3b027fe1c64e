package blockdev

import (
	"fmt"
	"math"

	"mcfs/internal/fault"
	"mcfs/internal/spare"
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
// closes its frame and every younger one, and puts back the stamps those
// frames overwrote, so the frame left newest skips the pages it saved
// before they opened. A frame closed without a rewind leaves its
// pre-images to the next older frame, which still needs them; closing the
// newest frame also stamps its pages with the next older frame's epoch,
// since that frame now holds a pre-image of each. The last frame to close
// lets the arena and the stamp index go as a spare, which the next
// frame takes back unless a collection has reclaimed it; epochs keep
// counting across that, so no stamp left in a reused index passes for a
// new frame's. A frame can also be reverted in part (revert): the
// pages under some regions go back to its bytes, the frame stays open and
// keeps their pre-images.
//
// The owning device's lock guards the log.
type undoLog struct {
	frames []undoFrame // open frames, oldest first
	pages  []int32     // page number of each saved pre-image, in save order
	prev   []uint32    // page's stamp before each save, parallel to pages
	arena  []byte      // the pre-images, undoPage bytes each, parallel to pages
	// saved[p] is the epoch of the frame that holds a pre-image of page
	// p: the newest frame skips pages stamped with its own epoch.
	saved []uint32
	epoch uint32
	// spare holds the arrays above, emptied, while no frame is open.
	spare spare.Slot[undoArrays]
}

// undoArrays is what an undo log with no frame open lets go of.
type undoArrays struct {
	frames []undoFrame
	pages  []int32
	prev   []uint32
	arena  []byte
	saved  []uint32
}

type undoFrame struct {
	key   uint64
	mark  int // len(pages) when the frame opened
	epoch uint32
}

// open starts a frame under key for a medium of size bytes.
func (u *undoLog) open(key uint64, size int) {
	if u.saved == nil {
		a, ok := u.spare.Take()
		if !ok {
			a.saved = make([]uint32, (size+undoPage-1)/undoPage)
		}
		u.frames, u.pages, u.prev, u.arena, u.saved = a.frames, a.pages, a.prev, a.arena, a.saved
	}
	if u.epoch == math.MaxUint32 {
		// Wrapping: forget every stamp, the ones a rewind would put back
		// too, and number the open frames afresh, so that no old epoch
		// passes for a new frame's. Open frames merely save some pages
		// twice.
		clear(u.saved)
		clear(u.prev)
		for i := range u.frames {
			u.frames[i].epoch = uint32(i + 1)
		}
		u.epoch = uint32(len(u.frames))
	}
	u.epoch++
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
		u.prev = append(u.prev, u.saved[p])
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

// rewind puts data and the stamps back to where they were when frame i
// (an index from find) opened, and closes that frame and every younger
// one.
func (u *undoLog) rewind(i int, data []byte) {
	mark := u.frames[i].mark
	for r := len(u.pages) - 1; r >= mark; r-- {
		p := u.pages[r]
		copy(data[int64(p)*undoPage:], u.arena[r*undoPage:(r+1)*undoPage])
		u.saved[p] = u.prev[r]
	}
	u.pages, u.prev, u.arena = u.pages[:mark], u.prev[:mark], u.arena[:mark*undoPage]
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
// Those pages go back to their bytes at the time the frame opened; the
// other saved pages stay as they are, on the medium and in the log.
// Every pre-image stays in the log with its stamp: a reverted page holds
// its pre-image again, so the frame's entry for it is as good as before
// and the next write to the page saves nothing. Frames younger than key's
// are closed, their entries left behind as close leaves them; a rewind
// copies newest first, so the oldest entry of a page wins. Nothing moves
// unless key holds a frame and every region lies inside the medium.
func (u *undoLog) revert(key uint64, data []byte, regions []fault.Region, name string) error {
	i := u.find(key)
	if i < 0 {
		return fmt.Errorf("%w: key=%d dev=%s", ErrNoFrame, key, name)
	}
	if err := checkRegions(regions, len(data), name); err != nil {
		return err
	}
	for r := len(u.pages) - 1; r >= u.frames[i].mark; r-- {
		if p := int64(u.pages[r]); pageUnder(regions, p) {
			copy(data[p*undoPage:], u.arena[r*undoPage:(r+1)*undoPage])
		}
	}
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
// When it is the newest frame, the next older one takes over its stamps:
// for every page the closing frame saved, the older frame now holds a
// pre-image, its own or — for a page it never saved, which has not
// changed since it opened — the closing frame's.
func (u *undoLog) close(key uint64) {
	i := u.find(key)
	if i < 0 {
		return
	}
	if i > 0 && i == len(u.frames)-1 {
		epoch := u.frames[i-1].epoch
		for _, p := range u.pages[u.frames[i].mark:] {
			u.saved[p] = epoch
		}
	}
	u.frames = append(u.frames[:i], u.frames[i+1:]...)
	u.truncate(len(u.frames))
}

// truncate keeps the n oldest frames; with none left the log lets go of
// everything it allocated, into its spare. The stamps stay in saved:
// every one is older than the next frame's epoch.
func (u *undoLog) truncate(n int) {
	if u.frames = u.frames[:n]; n == 0 {
		u.spare.Put(undoArrays{u.frames, u.pages[:0], u.prev[:0], u.arena[:0], u.saved})
		*u = undoLog{epoch: u.epoch, spare: u.spare}
	}
}

// stats reports the open frame count and the arena's size in bytes.
func (u *undoLog) stats() (frames, arenaBytes int) {
	return len(u.frames), cap(u.arena)
}

package blockdev

import (
	"fmt"
	"sync"
	"time"

	"mcfs/internal/fault"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
)

// MTD simulates an in-RAM flash character device, the stand-in for the
// mtdram kernel module the paper loads so JFFS2 has a device to mount.
//
// Flash semantics: the device is divided into erase blocks; bits can only
// be programmed from the erased state (0xFF) toward 0, so rewriting a
// region requires erasing its whole block first. JFFS2 is log-structured
// precisely to live within these rules.
//
// An MTD is a Media itself. The paper loads the mtdblock bridge only so
// that Spin can copy the flash through a block device; that copy is what
// OpenFrame and RewindFrame charge.
//
// Its pages are its erase blocks, so a block is one contiguous run of
// bytes to lend, and an erased block holds no page.
type MTD struct {
	mu         sync.Mutex
	name       string
	s          store // the bytes, a page per erase block, and the undo frames
	eraseSize  int
	clock      *simclock.Clock
	eraseCount []int64 // per-block erase counter (wear tracking)
	blankBlock []byte  // an erased block, lent for every erased block

	programCost time.Duration // per KiB programmed
	eraseCost   time.Duration // per block erase

	inj *fault.Injector // schedulable fault plane (nil = no faults)

	// stamps[b] is the value of changes at the last change to erase block
	// b's bytes, by whatever path: a stamp that has not moved means bytes
	// that have not changed. changes only grows, so no stamp comes back —
	// a block rewound to the bytes it once held still reads as changed.
	stamps  []uint64
	changes uint64

	// Observability counters (nil unless SetObs was called).
	ctrReads, ctrWrites, ctrErases *obs.Counter
}

// SetObs attaches an observability hub, registering the device's read,
// write (program), and erase counters under "blockdev.<name>.reads",
// ".writes", and ".erases". Nil-safe.
func (m *MTD) SetObs(h *obs.Hub) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctrReads = h.Counter("blockdev." + m.name + ".reads")
	m.ctrWrites = h.Counter("blockdev." + m.name + ".writes")
	m.ctrErases = h.Counter("blockdev." + m.name + ".erases")
}

// NewMTD returns a flash device of the given size with the given erase
// block size, a power of two. Size must be a multiple of eraseSize. The
// device starts fully erased (all 0xFF), holding no page.
func NewMTD(name string, size int64, eraseSize int, clock *simclock.Clock) *MTD {
	if eraseSize <= 0 || eraseSize&(eraseSize-1) != 0 || size <= 0 || size%int64(eraseSize) != 0 {
		panic(fmt.Sprintf("blockdev: bad MTD geometry size=%d erase=%d", size, eraseSize))
	}
	return &MTD{
		name:        name,
		s:           newStore(size, eraseSize, 0xFF),
		eraseSize:   eraseSize,
		clock:       clock,
		eraseCount:  make([]int64, size/int64(eraseSize)),
		stamps:      make([]uint64, size/int64(eraseSize)),
		programCost: 8 * time.Microsecond, // NOR-flash-like program speed per KiB
		eraseCost:   400 * time.Microsecond,
	}
}

// ErrNotErased is returned when a program operation would need to flip a
// bit from 0 to 1, which flash cannot do without an erase.
var ErrNotErased = fmt.Errorf("blockdev: programming non-erased flash")

// Size implements Reader.
func (m *MTD) Size() int64 { return m.s.size }

// EraseSize returns the erase block size in bytes.
func (m *MTD) EraseSize() int { return m.eraseSize }

// ReadAt implements Reader.
func (m *MTD) ReadAt(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+int64(len(p)) > m.s.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, len(p), m.s.size, m.name)
	}
	if err := m.read(off, len(p)); err != nil {
		return err
	}
	m.s.read(p, off)
	return nil
}

// read books one read request of n bytes at off: the fault plane may
// fail it, and a served one is counted and charged.
func (m *MTD) read(off int64, n int) error {
	m.ctrReads.Inc()
	if err := m.inj.OnRead(off, n); err != nil {
		return err
	}
	m.charge(time.Duration((n+1023)/1024) * time.Microsecond)
	return nil
}

// LendBlock is ReadAt of erase block idx — the same counter, the same
// word from the fault plane, the same charge — that lends the block's
// bytes instead of copying them out, along with the block's change stamp.
// The bytes are the flash itself: read-only, and good until the flash
// next changes. The stamp is what a reader may keep: as long as a later
// LendBlock of idx returns the same one, the block holds the same bytes.
func (m *MTD) LendBlock(idx int) (data []byte, stamp uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx < 0 || idx >= len(m.stamps) {
		return nil, 0, fmt.Errorf("%w: erase block %d of %d dev=%s", ErrOutOfRange, idx, len(m.stamps), m.name)
	}
	if err := m.read(int64(idx*m.eraseSize), m.eraseSize); err != nil {
		return nil, 0, err
	}
	data = m.s.table[idx]
	if data == nil {
		if m.blankBlock == nil {
			m.blankBlock = make([]byte, m.eraseSize)
			fill(m.blankBlock, 0xFF)
		}
		data = m.blankBlock
	}
	return data[:m.eraseSize:m.eraseSize], m.stamps[idx], nil
}

// changed stamps every erase block data[off:off+n] overlaps. Each path
// that can change the flash's bytes calls it, whether or not this
// particular call changed any.
func (m *MTD) changed(off int64, n int) {
	if n <= 0 {
		return
	}
	m.changes++
	es := int64(m.eraseSize)
	last := min((off+int64(n)-1)/es, int64(len(m.stamps))-1)
	for b := off / es; b <= last; b++ {
		m.stamps[b] = m.changes
	}
}

// Program writes p at off. Every byte written must only clear bits (the
// region must have been erased, or already hold a superset of the bits).
func (m *MTD) Program(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+int64(len(p)) > m.s.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, len(p), m.s.size, m.name)
	}
	if i := m.programmable(p, off); i >= 0 {
		return fmt.Errorf("%w: off=%d dev=%s", ErrNotErased, off+int64(i), m.name)
	}
	dec := m.inj.OnWrite(off, len(p))
	if dec.Err != nil {
		return dec.Err
	}
	n := len(p)
	if dec.Persist >= 0 && dec.Persist < n {
		n = dec.Persist // torn program: only the prefix reaches the flash
	}
	m.changed(off, len(p))
	m.s.write(p[:n], off)
	if n < len(p) {
		m.s.touch(off+int64(n), len(p)-n)
	}
	m.programmed(off, len(p), dec)
	return nil
}

// programmable returns the index of the first byte of p that would need
// a bit of the flash at off set, or -1 when p only clears bits.
func (m *MTD) programmable(p []byte, off int64) int {
	i := 0
	for blk, lo := m.s.locate(off); i < len(p); blk, lo = blk+1, 0 {
		n := min(len(p)-i, m.eraseSize-lo)
		if pg := m.s.table[blk]; pg != nil {
			for j, b := range p[i : i+n] {
				if pg[lo+j]&b != b {
					return i + j
				}
			}
		}
		i += n
	}
	return -1
}

// programmed finishes a program of n bytes at off whose payload is in
// place: corruption the fault plane ordered, the counter, the charge,
// and the touch log's copy of what landed, while its window is open.
func (m *MTD) programmed(off int64, n int, dec fault.Decision) {
	if dec.FlipBit >= 0 && dec.FlipBit < int64(n)*8 {
		m.s.flip(off+dec.FlipBit/8, uint(dec.FlipBit%8))
	}
	m.ctrWrites.Inc()
	m.charge(time.Duration((n+1023)/1024) * m.programCost)
	m.s.read(dec.Log, off)
}

// Erase resets erase block idx to all 0xFF.
func (m *MTD) Erase(idx int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx < 0 || idx >= len(m.eraseCount) {
		return fmt.Errorf("%w: erase block %d of %d dev=%s", ErrOutOfRange, idx, len(m.eraseCount), m.name)
	}
	start := idx * m.eraseSize
	// An erase is one window event too (crash points can fall right after
	// it), but it is atomic: torn/corrupt decisions don't apply.
	dec := m.inj.OnWrite(int64(start), m.eraseSize)
	if dec.Err != nil {
		return dec.Err
	}
	m.changed(int64(start), m.eraseSize)
	m.s.wipe(int64(start), m.eraseSize)
	m.erased(idx, dec)
	return nil
}

// erased finishes the erase of block idx: wear counter, obs counter,
// charge, and the touch log's copy of the block, while its window is
// open.
func (m *MTD) erased(idx int, dec fault.Decision) {
	m.eraseCount[idx]++
	m.ctrErases.Inc()
	m.charge(m.eraseCost)
	m.s.read(dec.Log, int64(idx*m.eraseSize))
}

// EraseCounts returns a copy of the per-block erase counters.
func (m *MTD) EraseCounts() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.eraseCount))
	copy(out, m.eraseCount)
	return out
}

func (m *MTD) charge(d time.Duration) {
	if m.clock != nil {
		m.clock.Advance(d)
	}
}

// SetInjector attaches a fault-injection plane (nil detaches). Program
// and Erase each count as one fault-window event.
func (m *MTD) SetInjector(inj *fault.Injector) {
	m.mu.Lock()
	m.inj = inj
	m.mu.Unlock()
}

// Injector returns the attached fault plane (nil when none).
func (m *MTD) Injector() *fault.Injector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inj
}

// LoadImage makes img the flash contents with no I/O charge, no
// erase-count change, and no fault-plane consultation — the state a
// power cut leaves behind — and stamps every block. It is the full-image
// reference the tests hold RevertFrame to.
func (m *MTD) LoadImage(img []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int64(len(img)) != m.s.size {
		return fmt.Errorf("blockdev: load image size %d != device size %d (%s)", len(img), m.s.size, m.name)
	}
	m.changed(0, len(img))
	m.s.write(img, 0)
	return nil
}

// OpenFrame implements Media: one read of the whole flash — the copy
// Spin takes through mtdblock — without the copy.
func (m *MTD) OpenFrame(key uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.read(0, int(m.s.size)); err != nil {
		return err
	}
	m.s.open(key)
	return nil
}

// RewindFrame implements Media. Writing an image back through mtdblock
// erases and reprograms every block; so does this, as far as the fault
// plane, the wear and obs counters and the clock can tell — only the
// bytes stay put, because the rewind has already put every block's image
// in place. A program the fault plane tears or corrupts does move bytes,
// the same way it would under that write.
func (m *MTD) RewindFrame(key uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.s.undo.find(key)
	if i < 0 {
		return fmt.Errorf("%w: key=%d dev=%s", ErrNoFrame, key, m.name)
	}
	for _, e := range m.s.undo.entries[m.s.undo.frames[i].mark:] {
		m.changed(int64(e.page)*int64(m.eraseSize), m.eraseSize) // the rewind puts this block back
	}
	m.s.rewind(i)
	es := m.eraseSize
	for idx := range m.eraseCount {
		start := idx * es
		dec := m.inj.OnWrite(int64(start), es)
		if dec.Err != nil {
			return dec.Err
		}
		m.erased(idx, dec)
		dec = m.inj.OnWrite(int64(start), es)
		if dec.Err != nil {
			return dec.Err
		}
		torn := dec.Persist >= 0 && dec.Persist < es
		if torn || dec.FlipBit >= 0 {
			m.s.touch(int64(start), es)
			m.changed(int64(start), es)
		}
		if torn {
			m.s.wipe(int64(start+dec.Persist), es-dec.Persist) // erased, never reprogrammed
		}
		m.programmed(int64(start), es, dec)
	}
	return nil
}

// CloseFrame implements Media.
func (m *MTD) CloseFrame(key uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.s.close(key)
}

// HasFrame implements Media.
func (m *MTD) HasFrame(key uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.undo.find(key) >= 0
}

// UndoStats reports the flash's open checkpoint frames and the bytes of
// pre-images held for them (see Disk.UndoStats).
func (m *MTD) UndoStats() (frames, heldBytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.undo.stats(m.s.page)
}

// RevertFrame implements Media. Programs and erases both reach the
// injector's touched set, so it bounds every byte where the flash can
// differ from a frame; flash has no cache to cool. Over the whole flash
// it is LoadImage of the frame's image, except that only the blocks it
// copied pre-images back into get a new stamp.
func (m *MTD) RevertFrame(key uint64, regions []fault.Region) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := m.s.undo.find(key); i >= 0 && checkRegions(regions, m.s.size, m.name) == nil {
		for _, e := range m.s.undo.entries[m.s.undo.frames[i].mark:] {
			if under(regions, int64(e.page), m.eraseSize) {
				m.changed(int64(e.page)*int64(m.eraseSize), m.eraseSize) // the revert copies into this block
			}
		}
	}
	return m.s.revert(key, regions, m.name)
}

// Patch implements Media.
func (m *MTD) Patch(writes []fault.Write) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.s.patch(writes, m.name); err != nil {
		return err // nothing landed
	}
	for _, w := range writes {
		m.changed(w.Off, len(w.Data))
	}
	return nil
}

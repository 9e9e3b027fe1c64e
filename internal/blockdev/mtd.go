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
type MTD struct {
	mu         sync.Mutex
	name       string
	data       []byte
	eraseSize  int
	clock      *simclock.Clock
	eraseCount []int64 // per-block erase counter (wear tracking)

	programCost time.Duration // per KiB programmed
	eraseCost   time.Duration // per block erase

	inj *fault.Injector // schedulable fault plane (nil = no faults)

	undo undoLog // open checkpoint frames and the pre-images they need

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
// block size. Size must be a multiple of eraseSize. The device starts
// fully erased (all 0xFF).
func NewMTD(name string, size int64, eraseSize int, clock *simclock.Clock) *MTD {
	if eraseSize <= 0 || size <= 0 || size%int64(eraseSize) != 0 {
		panic(fmt.Sprintf("blockdev: bad MTD geometry size=%d erase=%d", size, eraseSize))
	}
	m := &MTD{
		name:        name,
		data:        make([]byte, size),
		eraseSize:   eraseSize,
		clock:       clock,
		eraseCount:  make([]int64, size/int64(eraseSize)),
		stamps:      make([]uint64, size/int64(eraseSize)),
		programCost: 8 * time.Microsecond, // NOR-flash-like program speed per KiB
		eraseCost:   400 * time.Microsecond,
	}
	for i := range m.data {
		m.data[i] = 0xFF
	}
	return m
}

// ErrNotErased is returned when a program operation would need to flip a
// bit from 0 to 1, which flash cannot do without an erase.
var ErrNotErased = fmt.Errorf("blockdev: programming non-erased flash")

// Size returns the device capacity in bytes.
func (m *MTD) Size() int64 { return int64(len(m.data)) }

// EraseSize returns the erase block size in bytes.
func (m *MTD) EraseSize() int { return m.eraseSize }

// Name identifies the device in logs.
func (m *MTD) Name() string { return m.name }

// ReadAt fills p from flash starting at off.
func (m *MTD) ReadAt(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, len(p), len(m.data), m.name)
	}
	if err := m.read(off, len(p)); err != nil {
		return err
	}
	copy(p, m.data[off:])
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
	start := idx * m.eraseSize
	if err := m.read(int64(start), m.eraseSize); err != nil {
		return nil, 0, err
	}
	return m.data[start : start+m.eraseSize : start+m.eraseSize], m.stamps[idx], nil
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
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, len(p), len(m.data), m.name)
	}
	for i, b := range p {
		cur := m.data[off+int64(i)]
		if cur&b != b {
			return fmt.Errorf("%w: off=%d dev=%s", ErrNotErased, off+int64(i), m.name)
		}
	}
	dec := m.inj.OnWrite(off, len(p))
	if dec.Err != nil {
		return dec.Err
	}
	n := len(p)
	if dec.Persist >= 0 && dec.Persist < n {
		n = dec.Persist // torn program: only the prefix reaches the flash
	}
	m.undo.save(m.data, off, len(p))
	m.changed(off, len(p))
	copy(m.data[off:], p[:n])
	m.programmed(off, len(p), dec)
	return nil
}

// programmed finishes a program of n bytes at off whose payload is in
// place: corruption the fault plane ordered, the counter, the charge,
// and the touch log's copy of what landed.
func (m *MTD) programmed(off int64, n int, dec fault.Decision) {
	if dec.FlipBit >= 0 && dec.FlipBit < int64(n)*8 {
		m.data[off+dec.FlipBit/8] ^= 1 << uint(dec.FlipBit%8)
	}
	m.ctrWrites.Inc()
	m.charge(time.Duration((n+1023)/1024) * m.programCost)
	copy(dec.Log, m.data[off:])
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
	m.undo.save(m.data, int64(start), m.eraseSize)
	m.changed(int64(start), m.eraseSize)
	m.wipe(start, start+m.eraseSize)
	m.erased(idx, dec)
	return nil
}

// wipe sets data[lo:hi] to the erased state.
func (m *MTD) wipe(lo, hi int) {
	for i := lo; i < hi; i++ {
		m.data[i] = 0xFF
	}
}

// erased finishes the erase of block idx: wear counter, obs counter,
// charge, and the touch log's copy of the block.
func (m *MTD) erased(idx int, dec fault.Decision) {
	m.eraseCount[idx]++
	m.ctrErases.Inc()
	m.charge(m.eraseCost)
	copy(dec.Log, m.data[idx*m.eraseSize:])
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
// power cut leaves behind.
func (m *MTD) LoadImage(img []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(img) != len(m.data) {
		return fmt.Errorf("blockdev: load image size %d != device size %d (%s)", len(img), len(m.data), m.name)
	}
	m.undo.save(m.data, 0, len(m.data))
	m.changed(0, len(m.data))
	copy(m.data, img)
	return nil
}

// MTDBlock bridges an MTD device to the Device interface, the stand-in
// for the mtdblock kernel module. The paper loads mtdblock so that Spin
// can mmap the flash contents through a block device; MCFS likewise takes
// snapshots of JFFS2's persistent state through this bridge.
//
// Like the real mtdblock, writes are implemented read-modify-erase-program
// on whole erase blocks, which is slow and wears the flash; JFFS2 itself
// never writes through the bridge (it programs the MTD directly), the
// bridge exists for state capture.
type MTDBlock struct {
	mtd *MTD
}

// NewMTDBlock wraps an MTD device in the block interface.
func NewMTDBlock(mtd *MTD) *MTDBlock { return &MTDBlock{mtd: mtd} }

// ReadAt implements Device.
func (b *MTDBlock) ReadAt(p []byte, off int64) error { return b.mtd.ReadAt(p, off) }

// WriteAt implements Device via read-modify-erase-program of every erase
// block the range touches.
func (b *MTDBlock) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > b.mtd.Size() {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, len(p), b.mtd.Size(), b.mtd.Name())
	}
	es := int64(b.mtd.EraseSize())
	for len(p) > 0 {
		blk := off / es
		blkStart := blk * es
		// Read the whole erase block, merge, erase, reprogram.
		buf := make([]byte, es)
		if err := b.mtd.ReadAt(buf, blkStart); err != nil {
			return err
		}
		n := copy(buf[off-blkStart:], p)
		if err := b.mtd.Erase(int(blk)); err != nil {
			return err
		}
		if err := b.mtd.Program(buf, blkStart); err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// Size implements Device.
func (b *MTDBlock) Size() int64 { return b.mtd.Size() }

// BlockSize implements Device.
func (b *MTDBlock) BlockSize() int { return b.mtd.EraseSize() }

// Sync implements Device; flash has no volatile cache, so this is a no-op.
func (b *MTDBlock) Sync() error { return nil }

// Snapshot implements Device.
func (b *MTDBlock) Snapshot() ([]byte, error) {
	img := make([]byte, b.mtd.Size())
	if err := b.mtd.ReadAt(img, 0); err != nil {
		return nil, err
	}
	return img, nil
}

// Restore implements Device.
func (b *MTDBlock) Restore(img []byte) error {
	if int64(len(img)) != b.mtd.Size() {
		return fmt.Errorf("blockdev: restore image size %d != device size %d (%s)", len(img), b.mtd.Size(), b.mtd.Name())
	}
	es := b.mtd.EraseSize()
	for blk := 0; int64(blk*es) < b.mtd.Size(); blk++ {
		if err := b.mtd.Erase(blk); err != nil {
			return err
		}
		if err := b.mtd.Program(img[blk*es:(blk+1)*es], int64(blk*es)); err != nil {
			return err
		}
	}
	return nil
}

// OpenFrame implements Device: Snapshot — one read of the whole flash —
// without the copy.
func (b *MTDBlock) OpenFrame(key uint64) error {
	m := b.mtd
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.read(0, len(m.data)); err != nil {
		return err
	}
	m.undo.open(key, len(m.data))
	return nil
}

// RewindFrame implements Device. Restore erases and reprograms every
// block; so does this, as far as the fault plane, the wear and obs
// counters and the clock can tell — only the bytes stay put, because the
// rewind has already put every block's image in place. A program the
// fault plane tears or corrupts does move bytes, the same way it would
// under Restore.
func (b *MTDBlock) RewindFrame(key uint64) error {
	m := b.mtd
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.undo.find(key)
	if i < 0 {
		return fmt.Errorf("%w: key=%d dev=%s", ErrNoFrame, key, m.name)
	}
	for _, p := range m.undo.pages[m.undo.frames[i].mark:] {
		m.changed(int64(p)*undoPage, undoPage) // the rewind copies this page back
	}
	m.undo.rewind(i, m.data)
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
			m.undo.save(m.data, int64(start), es)
			m.changed(int64(start), es)
		}
		if torn {
			m.wipe(start+dec.Persist, start+es) // erased, never reprogrammed
		}
		m.programmed(int64(start), es, dec)
	}
	return nil
}

// CloseFrame and HasFrame implement Device.
func (b *MTDBlock) CloseFrame(key uint64) {
	b.mtd.mu.Lock()
	defer b.mtd.mu.Unlock()
	b.mtd.undo.close(key)
}

func (b *MTDBlock) HasFrame(key uint64) bool {
	b.mtd.mu.Lock()
	defer b.mtd.mu.Unlock()
	return b.mtd.undo.find(key) >= 0
}

// UndoStats reports the flash's open checkpoint frames and the bytes of
// pre-images held for them (see Disk.UndoStats).
func (b *MTDBlock) UndoStats() (frames, arenaBytes int) {
	b.mtd.mu.Lock()
	defer b.mtd.mu.Unlock()
	return b.mtd.undo.stats()
}

// LoadImage implements Media by delegating to the MTD device.
func (b *MTDBlock) LoadImage(img []byte) error { return b.mtd.LoadImage(img) }

// RevertFrame and Patch implement Media. Programs and erases both reach
// the injector's touch log, so the log bounds every byte where the flash
// can differ from a frame; flash has no cache to cool.
func (b *MTDBlock) RevertFrame(key uint64, regions []fault.Region) error {
	m := b.mtd
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := m.undo.find(key); i >= 0 {
		for _, p := range m.undo.pages[m.undo.frames[i].mark:] {
			if pageUnder(regions, int64(p)) {
				m.changed(int64(p)*undoPage, undoPage) // the revert copies this page back
			}
		}
	}
	return m.undo.revert(key, m.data, regions, m.name)
}

func (b *MTDBlock) Patch(writes []fault.Write) error {
	m := b.mtd
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.undo.patch(m.data, writes, m.name); err != nil {
		return err // nothing landed
	}
	for _, w := range writes {
		m.changed(w.Off, len(w.Data))
	}
	return nil
}

// Name implements Device.
func (b *MTDBlock) Name() string { return b.mtd.Name() + "block" }

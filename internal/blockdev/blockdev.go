// Package blockdev simulates the storage devices that back the file
// systems MCFS checks.
//
// The paper runs block-based file systems (Ext2/Ext4/XFS) on Linux RAM
// block devices — a modified brd driver ("brd2") that permits different
// sizes per disk — and also measures runs backed by a real HDD and SSD to
// show why RAM backing matters (Figure 2). JFFS2 requires an MTD character
// device, provided in the paper via mtdram plus the mtdblock bridge.
//
// This package reproduces each of those: a RAM disk, latency-model disks
// parameterized by seek time, transfer bandwidth and cache-flush cost
// (HDD/SSD profiles), and an MTD flash device with erase-block semantics.
// All devices charge their I/O costs to a shared virtual clock
// (internal/simclock).
//
// The cost model includes the parts of the storage stack that shaped the
// paper's Figure 2:
//
//   - a page cache: reads of previously accessed pages cost RAM time, so
//     only cold reads and all writes touch the medium (Linux's buffer
//     cache was present in the paper's HDD/SSD runs too — the 18-20x
//     slowdowns come from writes and flushes, not re-reads);
//   - seek locality: a request near the end of the previous one pays a
//     small fraction of the full positioning cost (elevator scheduling);
//   - explicit cache-flush cost, charged by Sync — write barriers are
//     what make per-operation remounting so expensive on real disks.
//
// Each consumer holds one interface: a block file system writes through
// Device, and state capture and power-loss simulation go through Media,
// which Disk and MTD both implement. Media's OpenFrame and RewindFrame
// stand in for Spin mmapping the backing store into its address space —
// through mtdblock, for the flash — and are charged as that whole-image
// copy: OpenFrame as a read of the full image (through the cache),
// RewindFrame as a write of it to the medium. What is copied is only the
// pages written in between (undo.go).
package blockdev

import (
	"fmt"
	"sync"
	"time"

	"mcfs/internal/fault"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
)

// Reader is what every medium offers a consumer that only looks at it,
// such as a file system checker.
type Reader interface {
	// ReadAt fills p from the medium starting at off.
	ReadAt(p []byte, off int64) error
	// Size returns the medium's capacity in bytes.
	Size() int64
}

// Device is the block interface a block file system (extfs, xfssim)
// reads and writes. Offsets and lengths are in bytes; implementations
// enforce bounds.
type Device interface {
	Reader
	// WriteAt stores p to the device starting at off.
	WriteAt(p []byte, off int64) error
	// Sync flushes the device write cache, charging the flush cost.
	Sync() error
}

// Media is what state capture needs of a medium, and all of it: the
// kernel's mounts, the device trackers and the crash oracle hold a
// medium as one. A frame checkpoints the image and a rewind brings it
// back, both charged as the paper's whole-image copy; RevertFrame and
// Patch make the media literally hold other bytes — no I/O charged, no
// fault plane consulted — which is how power-loss simulation installs a
// crash image: the frame's image plus a prefix of the fault plane's
// write log. Disk and MTD implement it.
type Media interface {
	Reader
	// OpenFrame checkpoints the contents under key, charging a read of
	// the whole image. Nothing is copied until something is written: the
	// medium saves the pre-image of each page the first time it changes
	// while the frame is the newest one open.
	OpenFrame(key uint64) error
	// RewindFrame brings back the contents checkpointed under key,
	// charging a write of the whole image, and closes key's frame and
	// every frame opened after it. ErrNoFrame if key holds none.
	RewindFrame(key uint64) error
	// CloseFrame forgets the checkpoint under key, leaving the contents
	// alone; unknown keys are ignored.
	CloseFrame(key uint64)
	// HasFrame reports whether key holds an open frame.
	HasFrame(key uint64) bool
	// RevertFrame takes every page a region overlaps back to its bytes at
	// the time key's frame opened; the frame stays open and frames opened
	// after it are closed. Those pages come back cold. Callers own the
	// correctness of regions: they must cover every byte where the media
	// differs from the frame (the injector's touched set, or the whole
	// media). ErrNoFrame if key holds none.
	RevertFrame(key uint64, regions []fault.Region) error
	// Patch lands the writes' bytes, in order. Caches are left alone: the
	// pages a crash image differs in are the ones RevertFrame just cooled.
	Patch(writes []fault.Write) error
}

// cachePage is the page-cache granularity.
const cachePage = 4096

// nearDistance is how close a request must start to the previous
// request's end to count as sequential (pays nearSeekFraction of Seek).
const nearDistance = 1 << 20

// nearSeekDiv divides Seek for sequential requests.
const nearSeekDiv = 20

// Profile describes a device's latency model.
type Profile struct {
	// Seek is the positioning cost of a random request; sequential
	// requests pay Seek/nearSeekDiv.
	Seek time.Duration
	// PerKiB is the medium transfer time per KiB.
	PerKiB time.Duration
	// CachedPerKiB is the page-cache (RAM) transfer time per KiB.
	CachedPerKiB time.Duration
	// Flush is the cost of a cache-flush barrier (Sync).
	Flush time.Duration
}

// Cost returns the cost of a cold transfer of n bytes with a random seek
// (kept for calibration tests; the Disk applies locality and caching on
// top).
func (p Profile) Cost(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	kib := (n + 1023) / 1024
	return p.Seek + time.Duration(kib)*p.PerKiB
}

// Device latency profiles, calibrated so the remount-tracked Figure 2
// configurations land near the paper's ratios: HDD ~20x and SSD ~18x
// slower than RAM backing for Ext2-vs-Ext4.
var (
	// RAMProfile: brd2-style RAM disk — medium transfers pay the block
	// layer's per-request overhead (~1 GiB/s effective), cached reads are
	// plain memory speed, and there are no barriers.
	RAMProfile = Profile{Seek: 0, PerKiB: 600 * time.Nanosecond, CachedPerKiB: 100 * time.Nanosecond}
	// SSDProfile: SATA SSD, ~90us access, ~400 MiB/s, ms-class FLUSH.
	SSDProfile = Profile{
		Seek:         90 * time.Microsecond,
		PerKiB:       2500 * time.Nanosecond,
		CachedPerKiB: 100 * time.Nanosecond,
		Flush:        9 * time.Millisecond,
	}
	// HDDProfile: 7200rpm disk, ~6ms positioning, ~150 MiB/s, rotational
	// FLUSH.
	HDDProfile = Profile{
		Seek:         6 * time.Millisecond,
		PerKiB:       6500 * time.Nanosecond,
		CachedPerKiB: 100 * time.Nanosecond,
		Flush:        6 * time.Millisecond,
	}
)

// Disk is an in-memory device with a configurable latency profile. It
// simulates the paper's brd2 RAM disks (RAMProfile) as well as HDD- and
// SSD-backed storage. brd2's reason for existing — RAM disks of different
// sizes per file system — is simply the size argument here.
type Disk struct {
	mu      sync.Mutex
	name    string
	data    []byte
	profile Profile
	clock   *simclock.Clock

	cached  []bool // page-cache residency per cachePage
	lastEnd int64  // end offset of the previous medium request

	inj *fault.Injector // schedulable fault plane (nil = no faults)

	reads, writes int64 // medium request counters

	undo undoLog // open checkpoint frames and the pre-images they need

	// Observability handles (nil unless SetObs was called): medium
	// requests are mirrored to per-device counters, and the big
	// tracker-driven transfers (Snapshot/Restore) get LayerBlockdev
	// spans. Per-page cache hits are deliberately not traced.
	obsHub                    *obs.Hub
	ctrReads, ctrWrites       *obs.Counter
	snapshotSpan, restoreSpan string // built once, at attach
}

// SetObs attaches an observability hub, registering the device's read
// and write counters under "blockdev.<name>.reads"/".writes". Nil-safe.
func (d *Disk) SetObs(h *obs.Hub) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obsHub = h
	d.ctrReads = h.Counter("blockdev." + d.name + ".reads")
	d.ctrWrites = h.Counter("blockdev." + d.name + ".writes")
	d.snapshotSpan, d.restoreSpan = "snapshot:"+d.name, "restore:"+d.name
}

// NewRAM returns a RAM disk of the given size. Sizes need not match
// across devices (the brd2 modification from the paper).
func NewRAM(name string, size int64, clock *simclock.Clock) *Disk {
	return NewDisk(name, size, RAMProfile, clock)
}

// NewDisk returns a disk with 4 KiB blocks and an explicit latency profile.
func NewDisk(name string, size int64, p Profile, clock *simclock.Clock) *Disk {
	if size <= 0 {
		panic(fmt.Sprintf("blockdev: non-positive size %d for %s", size, name))
	}
	return &Disk{
		name:    name,
		data:    make([]byte, size),
		profile: p,
		clock:   clock,
		cached:  make([]bool, (size+cachePage-1)/cachePage),
	}
}

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = fmt.Errorf("blockdev: access out of range")

func (d *Disk) checkRange(n int, off int64) error {
	if off < 0 || n < 0 || off+int64(n) > int64(len(d.data)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d dev=%s", ErrOutOfRange, off, n, len(d.data), d.name)
	}
	return nil
}

// seekCost returns the positioning cost for a medium request at off,
// applying the sequential-locality discount.
func (d *Disk) seekCost(off int64) time.Duration {
	delta := off - d.lastEnd
	if delta < 0 {
		delta = -delta
	}
	if delta <= nearDistance {
		return d.profile.Seek / nearSeekDiv
	}
	return d.profile.Seek
}

func (d *Disk) charge(t time.Duration) {
	if d.clock != nil && t > 0 {
		d.clock.Advance(t)
	}
}

// pageRange returns the first and one-past-last cache page of a byte
// range.
func pageRange(off int64, n int) (int64, int64) {
	return off / cachePage, (off + int64(n) + cachePage - 1) / cachePage
}

// ReadAt implements Reader. Cached pages cost RAM time; cold pages pay
// seek plus medium transfer and become cached.
func (d *Disk) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(len(p), off); err != nil {
		return err
	}
	if err := d.inj.OnRead(off, len(p)); err != nil {
		// A failed read transfers nothing and caches nothing, but the
		// request was issued: charge the positioning cost.
		d.reads++
		d.ctrReads.Inc()
		d.charge(d.seekCost(off))
		return err
	}
	copy(p, d.data[off:])
	first, last := pageRange(off, len(p))
	coldPages := 0
	for pg := first; pg < last; pg++ {
		if !d.cached[pg] {
			coldPages++
			d.cached[pg] = true
		}
	}
	if coldPages > 0 {
		d.reads++
		d.ctrReads.Inc()
		d.charge(d.seekCost(off) + time.Duration(coldPages*cachePage/1024)*d.profile.PerKiB)
		d.lastEnd = off + int64(len(p))
	}
	kib := (len(p) + 1023) / 1024
	d.charge(time.Duration(kib) * d.profile.CachedPerKiB)
	return nil
}

// WriteAt implements Device: write-through — the payload pays seek plus
// medium transfer, and the touched pages become cached.
func (d *Disk) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(len(p), off); err != nil {
		return err
	}
	dec := d.inj.OnWrite(off, len(p))
	if dec.Err != nil {
		return dec.Err
	}
	n := len(p)
	if dec.Persist >= 0 && dec.Persist < n {
		n = dec.Persist // torn write: only the prefix reaches the medium
	}
	d.undo.save(d.data, off, len(p))
	copy(d.data[off:], p[:n])
	if dec.FlipBit >= 0 && dec.FlipBit < int64(len(p))*8 {
		d.data[off+dec.FlipBit/8] ^= 1 << uint(dec.FlipBit%8)
	}
	first, last := pageRange(off, len(p))
	for pg := first; pg < last; pg++ {
		d.cached[pg] = true
	}
	d.writes++
	d.ctrWrites.Inc()
	// The full request was issued and charged; the tear lives in the
	// medium, not the bus.
	kib := (len(p) + 1023) / 1024
	d.charge(d.seekCost(off) + time.Duration(kib)*d.profile.PerKiB)
	d.lastEnd = off + int64(len(p))
	copy(dec.Log, d.data[off:])
	return nil
}

// Size implements Reader.
func (d *Disk) Size() int64 { return int64(len(d.data)) }

// BlockSize returns the disk's block size, 4 KiB.
func (d *Disk) BlockSize() int { return 4096 }

// Sync implements Device: a write barrier costing the profile's flush
// latency.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.charge(d.profile.Flush)
	return nil
}

// Snapshot returns a copy of the full image, read through the page cache
// (the paper mmaps the device, so resident pages cost RAM time): OpenFrame
// with the copy. The engine checkpoints with frames; Snapshot, Restore and
// LoadImageDelta stay for the benchmark's blockdev rows, which time them.
func (d *Disk) Snapshot() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.obsHub.StartSpan(obs.LayerBlockdev, d.snapshotSpan).End()
	img := make([]byte, len(d.data))
	copy(img, d.data)
	d.imageRead()
	return img, nil
}

// imageRead books the read of the whole image through the page cache:
// one medium request for the cold pages, which become resident, plus RAM
// time for every byte.
func (d *Disk) imageRead() {
	coldPages := 0
	for pg := range d.cached {
		if !d.cached[pg] {
			coldPages++
			d.cached[pg] = true
		}
	}
	if coldPages > 0 {
		d.reads++
		d.ctrReads.Inc()
		d.charge(d.profile.Seek + time.Duration(coldPages*cachePage/1024)*d.profile.PerKiB)
	}
	d.charge(time.Duration(len(d.data)/1024) * d.profile.CachedPerKiB)
}

// Restore overwrites the disk with img, written through to the medium
// sequentially: RewindFrame, with the image supplied.
func (d *Disk) Restore(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("blockdev: restore image size %d != device size %d (%s)", len(img), len(d.data), d.name)
	}
	if err := d.inj.OnControl(); err != nil {
		return err
	}
	defer d.obsHub.StartSpan(obs.LayerBlockdev, d.restoreSpan).End()
	d.undo.save(d.data, 0, len(d.data))
	copy(d.data, img)
	d.imageWritten()
	return nil
}

// imageWritten books one sequential write-through of the whole image,
// which leaves every page resident.
func (d *Disk) imageWritten() {
	for pg := range d.cached {
		d.cached[pg] = true
	}
	d.writes++
	d.ctrWrites.Inc()
	kib := (len(d.data) + 1023) / 1024
	d.charge(d.profile.Seek + time.Duration(kib)*d.profile.PerKiB)
	d.lastEnd = int64(len(d.data))
}

// OpenFrame implements Media: Snapshot without the copy.
func (d *Disk) OpenFrame(key uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.obsHub.StartSpan(obs.LayerBlockdev, d.snapshotSpan).End()
	d.undo.open(key, len(d.data))
	d.imageRead()
	return nil
}

// RewindFrame implements Media: Restore of the image OpenFrame(key)
// would have copied, moving only the pages written since.
func (d *Disk) RewindFrame(key uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := d.undo.find(key)
	if i < 0 {
		return fmt.Errorf("%w: key=%d dev=%s", ErrNoFrame, key, d.name)
	}
	if err := d.inj.OnControl(); err != nil {
		return err
	}
	defer d.obsHub.StartSpan(obs.LayerBlockdev, d.restoreSpan).End()
	d.undo.rewind(i, d.data)
	d.imageWritten()
	return nil
}

// CloseFrame implements Media.
func (d *Disk) CloseFrame(key uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.undo.close(key)
}

// HasFrame implements Media.
func (d *Disk) HasFrame(key uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.undo.find(key) >= 0
}

// UndoStats reports how many checkpoint frames are open and how many
// bytes of pre-images the device holds for them; both are zero once
// every frame has been rewound or closed.
func (d *Disk) UndoStats() (frames, arenaBytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.undo.stats()
}

// SetInjector attaches a fault-injection plane to the device (nil
// detaches).
func (d *Disk) SetInjector(inj *fault.Injector) {
	d.mu.Lock()
	d.inj = inj
	d.mu.Unlock()
}

// Injector returns the attached fault plane (nil when none).
func (d *Disk) Injector() *fault.Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inj
}

// LoadImage makes img the device's contents with no I/O charge and no
// fault-plane consultation, and the page cache comes back cold — the
// state a power cut leaves behind. It is the full-image reference the
// tests hold RevertFrame to.
func (d *Disk) LoadImage(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("blockdev: load image size %d != device size %d (%s)", len(img), len(d.data), d.name)
	}
	d.undo.save(d.data, 0, len(d.data))
	copy(d.data, img)
	for pg := range d.cached {
		d.cached[pg] = false
	}
	d.lastEnd = 0
	return nil
}

// RevertFrame implements Media. Over the whole disk it is LoadImage of
// the frame's image: the same bytes, every page cold, the head forgotten.
func (d *Disk) RevertFrame(key uint64, regions []fault.Region) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.undo.revert(key, d.data, regions, d.name); err != nil {
		return err
	}
	d.cool(regions)
	return nil
}

// cool drops the pages under regions from the page cache and forgets
// the head position: what a power cut does to them.
func (d *Disk) cool(regions []fault.Region) {
	for _, r := range regions {
		if r.Len <= 0 {
			continue
		}
		first, last := pageRange(r.Off, int(r.Len))
		for pg := first; pg < last; pg++ {
			d.cached[pg] = false
		}
	}
	d.lastEnd = 0
}

// Patch implements Media.
func (d *Disk) Patch(writes []fault.Write) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.undo.patch(d.data, writes, d.name)
}

// LoadImageDelta is LoadImage over the listed regions only: the media
// outside them is untouched, the pages under them come back cold. The
// engine installs crash images with RevertFrame and Patch; this is the
// image-copy form of the same power cut, which the benchmark times.
func (d *Disk) LoadImageDelta(img []byte, regions []fault.Region) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("blockdev: load image size %d != device size %d (%s)", len(img), len(d.data), d.name)
	}
	if err := checkRegions(regions, len(d.data), d.name); err != nil {
		return err
	}
	for _, r := range regions {
		if r.Len > 0 {
			d.undo.save(d.data, r.Off, int(r.Len))
			copy(d.data[r.Off:r.Off+r.Len], img[r.Off:r.Off+r.Len])
		}
	}
	d.cool(regions)
	return nil
}

// Counters returns the number of medium read and write requests served
// (cache hits are not counted).
func (d *Disk) Counters() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// DropCaches empties the page cache (tests use it to force cold reads).
func (d *Disk) DropCaches() {
	d.mu.Lock()
	for i := range d.cached {
		d.cached[i] = false
	}
	d.mu.Unlock()
}

// Package fault is MCFS's deterministic fault-injection plane for block
// devices. The paper's checkpoint/restore machinery reaches states that
// are hard to produce by testing; the states hardest of all to reach are
// the ones left behind by power loss and media faults. This package makes
// those states schedulable: an Injector sits between a device's write
// path and its backing array and, per write, decides to
//
//   - fail the write with a chosen error (per-write-index or byte-range
//     error injection),
//   - persist only a prefix of it (a torn multi-sector write),
//   - flip one bit of the payload (silent media corruption).
//
// Every write that persists inside a fault window is also a crash point.
// While the touch log is on, the injector keeps the bytes of every write
// as it landed until the window closes, so the image a power cut right
// after window write k would leave behind is the media at the log's base
// plus the log's prefix up to that write — a crash point is a position in
// the log, never a copy of the device, and nobody has to ask for one. No
// prefix reaches past the window, so once it has closed the log keeps no
// more bytes: later writes only extend the touched set, the sorted,
// coalesced regions every write since the base has covered.
//
// Determinism is the design constraint throughout: rules match on
// window-relative write indices and byte ranges (never wall-clock or
// randomness), so the same operation sequence sees the same faults —
// which is what lets crash bugs flow through the flight-recorder
// replay/minimize pipeline like any other nondeterministic choice.
//
// The package deliberately imports nothing from blockdev (blockdev
// imports fault): devices call OnWrite under their own lock and apply
// the returned Decision themselves.
package fault

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"mcfs/internal/spare"
)

// Kind enumerates the fault rule kinds.
type Kind int

const (
	// KindError fails matching writes with Rule.Err; nothing persists.
	KindError Kind = iota
	// KindTorn persists only the first Rule.PersistBytes bytes of
	// matching writes — the classic torn multi-sector write.
	KindTorn
	// KindCorrupt flips bit Rule.BitOffset of the payload of matching
	// writes — silent media corruption.
	KindCorrupt
	// KindReadError fails matching reads with Rule.Err — a media read
	// fault. Read rules match on byte range only (reads are not counted
	// against fault windows), so they fire inside and outside windows
	// alike. Devices consult them through OnRead.
	KindReadError
)

// Region is a half-open byte range [Off, Off+Len) on a device. The touch
// log reports the media regions writes have dirtied as Regions, and the
// crash oracle's delta paths reload and compare only those.
type Region struct {
	Off, Len int64
}

// Write is one persisted write as it landed: Data is what the media held
// at [Off, Off+len(Data)) right after it — the payload after any tear or
// bit flip; for an MTD erase, its block of 0xFF.
type Write struct {
	Off  int64
	Data []byte
}

// CoalesceRegions sorts regions by offset and merges overlapping or
// adjacent ones, returning a minimal equivalent list. The input is not
// modified.
func CoalesceRegions(regions []Region) []Region {
	if len(regions) == 0 {
		return nil
	}
	return coalesce(slices.Clone(regions))
}

// coalesce is CoalesceRegions in place.
func coalesce(rs []Region) []Region {
	slices.SortFunc(rs, func(a, b Region) int { return cmp.Compare(a.Off, b.Off) })
	out := rs[:0]
	for _, r := range rs {
		if r.Len <= 0 {
			continue
		}
		if n := len(out); n > 0 && r.Off <= out[n-1].Off+out[n-1].Len {
			if end := r.Off + r.Len; end > out[n-1].Off+out[n-1].Len {
				out[n-1].Len = end - out[n-1].Off
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Rule matches device writes and names the fault to inject. The zero
// range (Len == 0) matches every offset; AtWrite < 0 matches every
// window write.
type Rule struct {
	// Kind selects the fault.
	Kind Kind
	// AtWrite is the window-relative write index this rule fires at
	// (0-based); negative matches every write in the window. Ignored by
	// always-on rules, which have no window to count in.
	AtWrite int
	// Off/Len restrict the rule to writes overlapping the byte range
	// [Off, Off+Len); Len == 0 matches any offset.
	Off, Len int64
	// Err is the error KindError injects.
	Err error
	// PersistBytes is the persisted prefix length for KindTorn.
	PersistBytes int
	// BitOffset is the payload bit KindCorrupt flips (clamped to the
	// write's length).
	BitOffset int64
	// AlwaysOn makes the rule match outside fault windows too (a device
	// that fails every write).
	AlwaysOn bool
	// Once deactivates the rule after its first injection.
	Once bool
}

// matches reports whether the rule applies to a write of n bytes at off,
// the idx'th write of the active window (idx < 0: no window active).
func (r Rule) matches(off int64, n int, idx int) bool {
	if idx < 0 && !r.AlwaysOn {
		return false
	}
	if !r.AlwaysOn && r.AtWrite >= 0 && r.AtWrite != idx {
		return false
	}
	if r.Len > 0 && (off+int64(n) <= r.Off || off >= r.Off+r.Len) {
		return false
	}
	return true
}

// Decision tells the device what to do with one write. The zero value
// is not meaningful; use (Injector).OnWrite, which fills the sentinel
// fields (Persist == -1, FlipBit == -1) for the no-fault case.
type Decision struct {
	// Err, when non-nil, fails the write; nothing reaches media.
	Err error
	// Persist is how many payload bytes reach media: -1 means all of
	// them, anything else is a torn prefix.
	Persist int
	// FlipBit is the payload bit to invert before the copy, -1 for none.
	FlipBit int64
	// Log, when non-nil, is where the device copies the bytes the media
	// holds at the write's range once the write has landed — tear and bit
	// flip applied — before it releases its own lock: the touch log's
	// record of this write. It is nil with the log off or lost, and once
	// the log's window has closed: no crash image reads those bytes.
	Log []byte
}

// Stats counts injected faults.
type Stats struct {
	ErrorsInjected     int64
	ReadErrorsInjected int64
	TornInjected       int64
	CorruptInjected    int64
}

// Injector is one device's fault plane. All methods are safe for
// concurrent use; devices call OnWrite under their own lock, and the
// injector never calls back into the device, so lock order is acyclic.
type Injector struct {
	mu       sync.Mutex
	rules    []installed // in insertion (id) order
	nextRule int

	windowActive bool
	windowWrites int

	// marks[k] is 1 + the length of the touch log right after window write
	// k landed in it — crash image k is the log's base plus that prefix —
	// or 0 where write k failed, or its mark went with a dropped log.
	marks []int // guarded by mu

	// Touch log: when touching, every persisted write is recorded with the
	// bytes it left on media until the log's window closes, so media ==
	// base + replay(log) up to the close, base being the image at the last
	// StartTouchLog/ResetTouchLog; touched covers every persisted write
	// since the base, before the close and after it. Callers reload or
	// compare only the regions touched names, and rebuild crash images
	// from the log's prefixes. touchLost marks a media mutation the log
	// could not see (a full device Restore through OnControl) — the log is
	// then unusable until ResetTouchLog. closed marks a log whose window
	// has ended, and blind a window opened on such a log: its crash points
	// have no bytes to replay. The entries' Data are carved from chunk, so
	// a window costs a few allocations, not one per write. A dropped log
	// leaves its entry array and its last chunk in spareLog, which the
	// next log starts from unless a collection has taken them back.
	touching  bool
	touchLost bool
	closed    bool
	blind     bool
	log       []Write                // guarded by mu
	chunk     []byte                 // guarded by mu
	spareLog  spare.Slot[touchBytes] // guarded by mu
	touched   []Region               // guarded by mu; sorted, coalesced

	stats Stats
}

// touchBytes is what a dropped touch log leaves for the next: its entry
// array, emptied, and its last chunk.
type touchBytes struct {
	log   []Write
	chunk []byte
}

// installed is a rule under the id AddRule returned for it.
type installed struct {
	id int
	Rule
}

// New returns an empty injector: no rules, no window, no log.
func New() *Injector {
	return &Injector{}
}

// AddRule installs a rule and returns its id for RemoveRule.
func (in *Injector) AddRule(r Rule) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	id := in.nextRule
	in.nextRule++
	in.rules = append(in.rules, installed{id, r})
	return id
}

// RemoveRule uninstalls the rule under id (no-op if absent).
func (in *Injector) RemoveRule(id int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = slices.DeleteFunc(in.rules, func(x installed) bool { return x.id == id })
}

// ClearRules uninstalls every rule.
func (in *Injector) ClearRules() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// StartWindow opens a fault window: subsequent writes are numbered from
// 0, window-relative rules apply to them, and each one that persists is
// a crash point. The previous window's crash points are dropped. On a
// log whose window has already closed, the points answer ErrTouchLogLost
// until the next ResetTouchLog or StartTouchLog: the log kept none of
// the bytes written since the close.
func (in *Injector) StartWindow() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.windowActive = true
	in.windowWrites = 0
	in.marks = in.marks[:0]
	in.blind = in.closed
}

// EndWindow closes the fault window; only always-on rules match after.
// It closes the touch log's window too: the log keeps no bytes of later
// writes, which only extend the touched set.
func (in *Injector) EndWindow() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = in.closed || in.windowActive && in.touching
	in.windowActive = false
}

// WindowWrites reports how many writes the current (or last) window has
// seen — the size of the crash-point choice space for the windowed
// operation.
func (in *Injector) WindowWrites() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.windowWrites
}

// ErrTouchLogLost is CrashImage's answer for a crash point whose base
// nobody can vouch for: it was marked with the touch log off, or the log
// has since missed a media mutation, or it was marked in a window opened
// after the log's window had closed.
var ErrTouchLogLost = errors.New("fault: crash point has no usable touch log under it (log off, lost to an unlogged restore, or closed)")

// CrashImage looks crash point k up by its window write index. fired is
// false when window write k did not persist: it failed, it has not
// happened, or the log it was marked in has been dropped. Otherwise
// writes is the image a power cut right after that write leaves behind,
// as the touch log's prefix to replay, oldest first, over the log's base
// (the media at the last StartTouchLog/ResetTouchLog) — or the error is
// ErrTouchLogLost, when the base is unknown or the log kept no bytes
// for the point. A mark never outlives its log: whatever drops the log
// drops the marks, and StartWindow starts them afresh. writes is valid
// until the log is next dropped: the next log writes over its bytes.
func (in *Injector) CrashImage(k int) (writes []Write, fired bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if k < 0 || k >= len(in.marks) || in.marks[k] == 0 {
		return nil, false, nil
	}
	if !in.touching || in.touchLost || in.blind {
		return nil, true, ErrTouchLogLost
	}
	n := in.marks[k] - 1
	return in.log[:n:n], true, nil
}

// StartTouchLog begins recording every persisted write, replacing any
// previous log. The log answers "which media regions may differ from a
// snapshot taken now, and what do they hold" — the basis for delta
// reloads, delta state comparison and crash images in crash exploration.
func (in *Injector) StartTouchLog() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.touching = true
	in.dropLog()
}

// StopTouchLog stops recording and drops the log.
func (in *Injector) StopTouchLog() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.touching = false
	in.dropLog()
}

// ResetTouchLog clears the log (and any lost-update mark) while leaving
// recording on: called right after the media has been reset to a known
// image, so the log again describes divergence from that image.
func (in *Injector) ResetTouchLog() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.touching {
		in.dropLog()
	}
}

// dropLog forgets the log, the crash marks into it, its touched set
// and its lost and closed marks. Caller holds in.mu.
func (in *Injector) dropLog() {
	in.touchLost, in.closed, in.blind = false, false, false
	in.spareBytes()
	in.marks = in.marks[:0]
	in.touched = in.touched[:0]
}

// spareBytes lets the log's entries and chunks go, leaving the entry
// array and the last chunk to the next log: the CrashImage results into
// them are void from here on. The entries are cleared first, or their
// Data would keep the older chunks alive. Caller holds in.mu.
func (in *Injector) spareBytes() {
	if cap(in.chunk) > 0 {
		clear(in.log)
		in.spareLog.Put(touchBytes{in.log[:0], in.chunk[:0]})
	}
	in.log, in.chunk = nil, nil
}

// Touched returns the coalesced regions written since the last
// StartTouchLog/ResetTouchLog, in offset order. ok is false with the log
// off, or when it missed a media mutation (a full Restore ran through
// OnControl while recording): nothing then bounds where the media
// differs from the base, and a crash image over it is ErrTouchLogLost.
func (in *Injector) Touched() ([]Region, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.touching || in.touchLost {
		return nil, false
	}
	return append(make([]Region, 0, len(in.touched)), in.touched...), true
}

// AppendTouched is Touched into a buffer the caller owns: it appends the
// touched regions to dst and returns the union of dst's regions and
// them, sorted and coalesced in place. ok is false as for Touched, and
// dst comes back unchanged.
func (in *Injector) AppendTouched(dst []Region) ([]Region, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.touching || in.touchLost {
		return dst, false
	}
	if len(dst) == 0 {
		return append(dst, in.touched...), true
	}
	return coalesce(append(dst, in.touched...)), true
}

// touch merges [off, off+n) into the touched set, which stays sorted
// with no two regions overlapping or adjacent. n > 0. Caller holds in.mu.
func (in *Injector) touch(off int64, n int) {
	end := off + int64(n)
	rs := in.touched
	// i is the first region ending at or after off, the first the write
	// can merge with; the regions from i up to j start at or before end,
	// and it merges with all of them.
	i, _ := slices.BinarySearchFunc(rs, off, func(r Region, off int64) int { return cmp.Compare(r.Off+r.Len, off) })
	j := i
	for j < len(rs) && rs[j].Off <= end {
		j++
	}
	if i == j {
		in.touched = slices.Insert(rs, i, Region{Off: off, Len: int64(n)})
		return
	}
	lo, hi := min(off, rs[i].Off), max(end, rs[j-1].Off+rs[j-1].Len)
	rs[i] = Region{Off: lo, Len: hi - lo}
	in.touched = slices.Delete(rs, i+1, j)
}

// logChunk is the smallest chunk the touch log carves its entries from.
const logChunk = 4 << 10

// record appends a write of n bytes at off to the touch log and returns
// the entry's Data for the device to fill. A log's first write takes
// back the last log's bytes if no collection has reclaimed them; each new
// chunk doubles the last, so a window's log is a handful of allocations
// whatever its length, and none when the last log's chunk holds it.
// Caller holds in.mu.
func (in *Injector) record(off int64, n int) []byte {
	if in.chunk == nil {
		if b, ok := in.spareLog.Take(); ok {
			in.log, in.chunk = b.log, b.chunk
		}
	}
	if len(in.chunk)+n > cap(in.chunk) {
		in.chunk = make([]byte, 0, max(n, logChunk, 2*cap(in.chunk)))
	}
	lo := len(in.chunk)
	in.chunk = in.chunk[:lo+n]
	data := in.chunk[lo : lo+n : lo+n]
	in.log = append(in.log, Write{Off: off, Data: data})
	return data
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// OnWrite is the device's per-write hook: n payload bytes at device
// offset off are about to reach media. Nil-safe — a nil injector always
// answers "no fault". The write is counted against the open window
// (if any) whether or not a fault fires.
func (in *Injector) OnWrite(off int64, n int) Decision {
	dec := Decision{Persist: -1, FlipBit: -1}
	if in == nil {
		return dec
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := -1
	if in.windowActive {
		idx = in.windowWrites
		in.windowWrites++
	}
	for i := 0; i < len(in.rules); i++ {
		r := in.rules[i]
		if r.Kind == KindReadError || !r.matches(off, n, idx) {
			continue
		}
		switch r.Kind {
		case KindError:
			// Errors dominate: a failed write persists nothing, so any
			// torn/corrupt match on the same write is moot.
			dec.Err = r.Err
			dec.Persist = -1
			dec.FlipBit = -1
			in.stats.ErrorsInjected++
			if r.Once {
				in.rules = slices.Delete(in.rules, i, i+1)
			}
			return dec
		case KindTorn:
			p := r.PersistBytes
			if p > n {
				p = n
			}
			if p < 0 {
				p = 0
			}
			dec.Persist = p
			in.stats.TornInjected++
		case KindCorrupt:
			b := r.BitOffset
			if max := int64(n)*8 - 1; b > max {
				b = max
			}
			if b < 0 {
				b = 0
			}
			dec.FlipBit = b
			in.stats.CorruptInjected++
		}
		if r.Once {
			in.rules = slices.Delete(in.rules, i, i+1)
			i--
		}
	}
	if in.touching && !in.touchLost && n > 0 {
		// The write persists (no error fired above): its full range is
		// touched, and until the window closes the device records the bytes
		// the range holds afterwards. A torn write's unwritten tail is
		// logged as the old bytes it still holds.
		in.touch(off, n)
		if !in.closed {
			dec.Log = in.record(off, n)
		}
	}
	if idx >= 0 {
		// Every persisted window write is a crash point. Writes that failed,
		// and those whose marks went with a log dropped mid-window, get none.
		for len(in.marks) < idx {
			in.marks = append(in.marks, 0)
		}
		in.marks = append(in.marks, len(in.log)+1)
	}
	return dec
}

// OnRead is the device's per-read hook: n bytes at offset off are about
// to be served. KindReadError rules matching the byte range fail the
// read — reads are not window-indexed, so range is the only selector.
// Nil-safe.
func (in *Injector) OnRead(off int64, n int) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.rules {
		if r.Kind != KindReadError {
			continue
		}
		if r.Len > 0 && (off+int64(n) <= r.Off || off >= r.Off+r.Len) {
			continue
		}
		err := r.Err
		in.stats.ReadErrorsInjected++
		if r.Once {
			in.rules = slices.Delete(in.rules, i, i+1)
		}
		return err
	}
	return nil
}

// OnControl is the hook for non-write device mutations (image restore):
// only always-on error rules apply — a device that fails all writes must
// fail restores too — and nothing is counted against the window.
// Nil-safe.
func (in *Injector) OnControl() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.touching {
		// A full image restore rewrites media the touch log never saw: the
		// log is lost — nothing it says bounds the media any more, so let
		// its bytes go — and the marks stay, to answer ErrTouchLogLost.
		in.touchLost = true
		in.spareBytes()
	}
	for i, r := range in.rules {
		if r.Kind == KindError && r.AlwaysOn && r.AtWrite < 0 && r.Len == 0 {
			err := r.Err
			in.stats.ErrorsInjected++
			if r.Once {
				in.rules = slices.Delete(in.rules, i, i+1)
			}
			return err
		}
	}
	return nil
}

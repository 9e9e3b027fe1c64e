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
// as it landed, so the image a power cut right after window write k would
// leave behind is the media at the log's base plus the log's prefix up to
// that write — a crash point is a position in the log, never a copy of
// the device, and nobody has to ask for one.
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
	"errors"
	"sort"
	"sync"
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
	rs := make([]Region, 0, len(regions))
	for _, r := range regions {
		if r.Len > 0 {
			rs = append(rs, r)
		}
	}
	return coalesce(rs)
}

// coalesce is CoalesceRegions in place, over regions of positive length.
func coalesce(rs []Region) []Region {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Off < rs[j].Off })
	out := rs[:0]
	for _, r := range rs {
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
	// record of this write.
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
	rules    map[int]Rule
	nextRule int

	windowActive bool
	windowWrites int

	// marks[k] is 1 + the length of the touch log right after window write
	// k landed in it — crash image k is the log's base plus that prefix —
	// or 0 where write k failed, or its mark went with a dropped log.
	marks []int // guarded by mu

	// Touch log: when touching, every persisted write is recorded with the
	// bytes it left on media, so media == base + replay(log), base being
	// the image at the last StartTouchLog/ResetTouchLog. Callers reload or
	// compare only the regions the log names, and rebuild crash images
	// from its prefixes. touchLost marks a media mutation the log could
	// not see (a full device Restore through OnControl) — the log is then
	// unusable until ResetTouchLog. The entries' Data are carved from
	// chunk, so a window costs a few allocations, not one per write.
	touching  bool
	touchLost bool
	log       []Write // guarded by mu
	chunk     []byte  // guarded by mu

	stats Stats
}

// New returns an empty injector: no rules, no window, no log.
func New() *Injector {
	return &Injector{rules: make(map[int]Rule)}
}

// AddRule installs a rule and returns its id for RemoveRule.
func (in *Injector) AddRule(r Rule) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	id := in.nextRule
	in.nextRule++
	in.rules[id] = r
	return id
}

// RemoveRule uninstalls the rule under id (no-op if absent).
func (in *Injector) RemoveRule(id int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, id)
}

// ClearRules uninstalls every rule.
func (in *Injector) ClearRules() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = make(map[int]Rule)
}

// StartWindow opens a fault window: subsequent writes are numbered from
// 0, window-relative rules apply to them, and each one that persists is
// a crash point. The previous window's crash points are dropped.
func (in *Injector) StartWindow() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.windowActive = true
	in.windowWrites = 0
	in.marks = in.marks[:0]
}

// EndWindow closes the fault window; only always-on rules match after.
func (in *Injector) EndWindow() {
	in.mu.Lock()
	defer in.mu.Unlock()
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
// has since missed a media mutation.
var ErrTouchLogLost = errors.New("fault: crash point has no usable touch log under it (log off, or lost to an unlogged restore)")

// CrashImage looks crash point k up by its window write index. fired is
// false when window write k did not persist: it failed, it has not
// happened, or the log it was marked in has been dropped. Otherwise
// writes is the image a power cut right after that write leaves behind,
// as the touch log's prefix to replay, oldest first, over the log's base
// (the media at the last StartTouchLog/ResetTouchLog) — or the error is
// ErrTouchLogLost, when the base is unknown. A mark never outlives its
// log: whatever drops the log drops the marks, and StartWindow starts
// them afresh.
func (in *Injector) CrashImage(k int) (writes []Write, fired bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if k < 0 || k >= len(in.marks) || in.marks[k] == 0 {
		return nil, false, nil
	}
	if !in.touching || in.touchLost {
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

// dropLog forgets the log, the crash marks into it and its lost mark.
// The bytes are let go, not reused: CrashImage results stay valid.
// Caller holds in.mu.
func (in *Injector) dropLog() {
	in.touchLost = false
	in.log, in.chunk, in.marks = nil, nil, in.marks[:0]
}

// Touched returns the coalesced regions written since the last
// StartTouchLog/ResetTouchLog. ok is false when the log missed a media
// mutation (a full Restore ran through OnControl while recording) —
// callers must then fall back to full-image operations.
func (in *Injector) Touched() ([]Region, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.touching || in.touchLost {
		return nil, false
	}
	rs := make([]Region, len(in.log))
	for i, w := range in.log {
		rs[i] = Region{Off: w.Off, Len: int64(len(w.Data))}
	}
	return coalesce(rs), true
}

// logChunk is the smallest chunk the touch log carves its entries from.
const logChunk = 4 << 10

// record appends a write of n bytes at off to the touch log and returns
// the entry's Data for the device to fill. Each new chunk doubles the
// last, so a window's log is a handful of allocations whatever its
// length. Caller holds in.mu.
func (in *Injector) record(off int64, n int) []byte {
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

// ruleOrder returns the installed rule ids in insertion (id) order, so
// rule evaluation — and therefore every injected fault — is independent
// of Go's map iteration order. Caller holds in.mu.
func (in *Injector) ruleOrder() []int {
	ids := make([]int, 0, len(in.rules))
	for id := range in.rules {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
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
	for _, id := range in.ruleOrder() {
		r := in.rules[id]
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
				delete(in.rules, id)
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
			delete(in.rules, id)
		}
	}
	if in.touching && !in.touchLost && n > 0 {
		// The write persists (no error fired above): the device records the
		// bytes its full range holds afterwards. A torn write's unwritten
		// tail is logged as the old bytes it still holds.
		dec.Log = in.record(off, n)
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
	for _, id := range in.ruleOrder() {
		r := in.rules[id]
		if r.Kind != KindReadError {
			continue
		}
		if r.Len > 0 && (off+int64(n) <= r.Off || off >= r.Off+r.Len) {
			continue
		}
		err := r.Err
		in.stats.ReadErrorsInjected++
		if r.Once {
			delete(in.rules, id)
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
		in.log, in.chunk = nil, nil
	}
	for _, id := range in.ruleOrder() {
		r := in.rules[id]
		if r.Kind == KindError && r.AlwaysOn && r.AtWrite < 0 && r.Len == 0 {
			err := r.Err
			in.stats.ErrorsInjected++
			if r.Once {
				delete(in.rules, id)
			}
			return err
		}
	}
	return nil
}

// Crash-consistency exploration: at nondeterministically chosen crash
// points inside an operation's write window, simulate power loss —
// discard all volatile state, keep only the blocks that reached media —
// remount the target through its recovery path, and check a
// prefix-consistency oracle: the recovered state must be the state after
// some prefix of the acknowledged (synced) operations. For a journaled
// target that means exactly "before the op" or "after the op" (Strict
// mode, backed by fsck); for unjournaled or log-structured targets the
// oracle is mount-only — recovery must succeed and produce a mountable,
// checkable volume.
//
// The probe is systematic, not random: the operation is executed ONCE
// under an open fault window, where every write that persists is a crash
// point — the injector logs every write's bytes as it lands and marks the
// log's length at each — which measures the write count W and fixes
// every crash image in the same pass: image k is the pre-op media plus
// the log's prefix up to mark k. The sampled indices (all of them when W
// is at most crashPointsPerOp, an even spread including 0 and W-1
// otherwise) are then judged from those prefixes without ever
// re-executing the window, however long it is. Determinism is inherited
// from the fault plane: the same operation sequence produces the same
// write sequence, so a crash bug pins to (trail, target, write index) and
// flows through the journal/replay/minimize/bundle pipeline like any
// other discrepancy.
package mc

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
	"mcfs/internal/workload"
)

// KindCrashConsistency is the discrepancy kind of crash-recovery bugs.
const KindCrashConsistency = "crash-consistency"

// probeFrame is the undo frame a crash probe checkpoints the media
// under. Trackers count their keys up from zero; this one is out of
// their reach.
const probeFrame = ^uint64(0)

// crashPointsPerOp caps the crash points judged per (state, operation,
// target). With one execution marking every point and warm recovery
// mounts the marginal point is cheap, so the cap is effectively
// exhaustive: every write of any window up to 64 writes.
const crashPointsPerOp = 64

// CrashPlane is one target's crash-testing surface, as data: where the
// target is mounted (the kernel keeps how to mount it again), the media
// under it, and the fault plane on that media. What the oracle does to a
// plane — bracket a window with remounts, roll the media back, cut the
// power, hash the metadata, key the media — is written once, below,
// over these fields.
type CrashPlane struct {
	// Target is the target's index in the checker's target list; Name
	// its human name (e.g. "ext4#1"); Mount its mount point.
	Target int
	Name   string
	Mount  string
	// Injector is the fault plane installed on Media.
	Injector *fault.Injector
	// Media is the target's backing medium: the block device, or the MTD.
	Media blockdev.Media
	// Mask lists the media byte ranges that may differ between equivalent
	// states (superblock dirty flags, mount counters, replayed journal
	// space). Fsck and the metadata hash never read masked bytes, so two
	// recovered images that agree outside Mask are state-equivalent.
	Mask []fault.Region
	// Strict requires the recovered state to equal the pre-op or
	// post-op state exactly (journaled targets). Non-strict planes only
	// require recovery to succeed and pass Fsck.
	Strict bool
	// Fsck, when set, reports post-recovery integrity problems. It is the
	// one thing a plane cannot say as data: the checker belongs to the
	// file system, which this package does not import.
	Fsck func() []string
}

// crashRegions is the scratch a probe's region lists are built in, kept
// on the engine so a crash point allocates none of them: window is the
// window's write set, read once per probe; union is a touched set merged
// with other regions, rebuilt for every install and every memo key.
type crashRegions struct {
	window, union []fault.Region
}

// install makes the plane's media hold the probe's pre-op state plus
// writes, a prefix of the touch log (none: the pre-op state itself). The
// media diverges from the probe frame only inside the touch log plus
// extra — regions the caller knows diverged outside the log's view (a
// crash image installed since the log's last reset) — so only those go
// back to the frame before the writes land on it.
func (e *engine) install(p *CrashPlane, extra []fault.Region, writes []fault.Write) error {
	regions, ok := p.Injector.AppendTouched(append(e.crashRegions.union[:0], extra...))
	e.crashRegions.union = regions
	if !ok {
		return fault.ErrTouchLogLost
	}
	if err := p.Media.RevertFrame(probeFrame, regions); err != nil {
		return err
	}
	return p.Media.Patch(writes)
}

// crashMemo is a probe's verdict memo, kept on the engine so a crash
// point allocates none of it. A point is keyed by its stream: for each
// region the media diverged in, the region's offset and length, then its
// bytes outside the plane's Mask. The arena holds the streams of the
// probe's judged points back to back, and nothing else: regions are read
// straight into it. An entry is one stream's CRC-32C, its span in the
// arena and the verdict inspect gave it. A lookup hits only an entry whose
// crc matches and whose span equals the new stream byte for byte, so two
// points share a verdict exactly when they recovered to media equal
// outside Mask.
type crashMemo struct {
	arena   []byte
	entries []memoEntry
	// sum is the crc of the stream at the arena's tail, past the last
	// entry's span, between a lookup that missed and keep.
	sum   uint32
	masks []sortedMask
}

// memoEntry is one judged stream: its crc, arena[from:to], and the
// verdict.
type memoEntry struct {
	sum      uint32
	from, to int
	v        crashVerdict
}

// castagnoli is CRC-32C's table, which hash/crc32 computes in hardware
// where the CPU has an instruction for it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crashSum keys a stream. A variable only so that tests can replace it
// (export_test.go): a constant makes every key collide, a counter makes
// none match.
var crashSum = func(stream []byte) uint32 { return crc32.Checksum(stream, castagnoli) }

// sortedMask is a plane's Mask sorted by offset, sorted once per plane.
type sortedMask struct {
	p    *CrashPlane
	mask []fault.Region
}

// maskOf returns p's Mask sorted by offset.
func (m *crashMemo) maskOf(p *CrashPlane) []fault.Region {
	for _, s := range m.masks {
		if s.p == p {
			return s.mask
		}
	}
	mask := slices.Clone(p.Mask)
	slices.SortFunc(mask, func(a, b fault.Region) int { return cmp.Compare(a.Off, b.Off) })
	m.masks = append(m.masks, sortedMask{p, mask})
	return mask
}

// reset empties the memo for a new probe, keeping its memory.
func (m *crashMemo) reset() {
	clear(m.entries) // the verdicts' fsck reports
	m.entries, m.arena = m.entries[:0], m.arena[:0]
}

// kept is where the stream past the memo's entries starts.
func (m *crashMemo) kept() int {
	if n := len(m.entries); n > 0 {
		return m.entries[n-1].to
	}
	return 0
}

// stream appends to the arena the stream of the media under the given
// regions. The mask is fixed, so the regions also fix which bytes follow
// each header, and equal streams mean media equal outside Mask. Every
// region is read whole, masked bytes too: the reads are charged as a full
// read of them. ok == false means a read failed, the arena is as it was,
// and the caller must fall back to the full oracle.
func (m *crashMemo) stream(p *CrashPlane, regions []fault.Region) (ok bool) {
	from := len(m.arena)
	mask := m.maskOf(p)
	for _, r := range regions {
		a := binary.LittleEndian.AppendUint64(m.arena, uint64(r.Off))
		a = binary.LittleEndian.AppendUint64(a, uint64(r.Len))
		at := len(a)
		a = slices.Grow(a, int(r.Len))[:at+int(r.Len)]
		m.arena = a
		if err := p.Media.ReadAt(a[at:], r.Off); err != nil {
			m.arena = a[:from]
			return false
		}
		// Move each unmasked run down over the masked bytes before it.
		n, pos, end := at, r.Off, r.Off+r.Len // n: the stream's end; pos: the first byte not yet kept or masked
		for _, k := range mask {
			if k.Off >= end {
				break
			}
			if k.Off > pos {
				n += copy(a[n:], a[at+int(pos-r.Off):at+int(k.Off-r.Off)])
			}
			pos = max(pos, k.Off+k.Len)
		}
		if pos < end {
			n += copy(a[n:], a[at+int(pos-r.Off):])
		}
		m.arena = a[:n]
	}
	return true
}

// lookup finds the verdict of the stream at the arena's tail. A hit drops
// the stream; a miss leaves it for keep.
func (m *crashMemo) lookup() (v crashVerdict, hit bool) {
	from := m.kept()
	s := m.arena[from:]
	m.sum = crashSum(s)
	for i := range m.entries {
		if en := &m.entries[i]; en.sum == m.sum && bytes.Equal(m.arena[en.from:en.to], s) {
			m.arena = m.arena[:from]
			return en.v, true
		}
	}
	return v, false
}

// keep records v as the verdict of the stream a lookup just missed.
func (m *crashMemo) keep(v crashVerdict) {
	m.entries = append(m.entries, memoEntry{sum: m.sum, from: m.kept(), to: len(m.arena), v: v})
}

// metaOpts are the oracle's abstraction options: file content is
// ignored, since data writes are legitimately non-atomic under metadata
// journaling.
func (e *engine) metaOpts() abstraction.Options {
	opts := e.cfg.Checker.AbstractionOptions()
	opts.IgnoreContent = true
	return opts
}

// metaHash abstracts the plane's current state for the oracle, walking
// in the engine's crash walk memory (crashWalk, crashRecs).
func (e *engine) metaHash(p *CrashPlane) (abstraction.State, errno.Errno) {
	opts := e.metaOpts()
	recs, er := e.crashWalk.Snapshot(e.crashRecs[:0], e.cfg.Kernel, p.Mount, opts)
	e.crashRecs = recs
	if er != errno.OK {
		return abstraction.State{}, er
	}
	return abstraction.HashRecords(recs, opts), errno.OK
}

// rollback brings the plane back to the image load installs, mounted
// fresh — also from the detached mount a failed recovery leaves behind.
// The unmount flushes through the injector, so load runs (and consults
// the touch log) only after it; once the media holds that image again the
// log is reset, and describes divergence from it from then on.
func (e *engine) rollback(p *CrashPlane, load func() error) error {
	return e.cfg.Kernel.RemountWith(p.Mount, func() error {
		if err := load(); err != nil {
			return err
		}
		p.Injector.ResetTouchLog()
		return nil
	})
}

// powerCycle simulates power loss with the image load installs as the
// surviving media: drop all volatile state, load, and remount through the
// target's recovery path (journal replay, log scan). An error means
// recovery itself failed. The touch log is not reset: the image diverges
// from the probe's base, and the log must keep saying so.
func (e *engine) powerCycle(p *CrashPlane, load func() error) error {
	e.probe.idle()
	err := e.cfg.Kernel.CrashRemount(p.Mount, load)
	e.probe.remounted()
	return err
}

// CrashConfig enables crash exploration on the engine.
type CrashConfig struct {
	// Planes lists the crash-testable targets.
	Planes []CrashPlane
}

// CrashStats counts crash-exploration work for one run.
type CrashStats struct {
	// Probes counts (state, operation, target) windows probed.
	Probes int64
	// PointsExplored counts crash points actually tested.
	PointsExplored int64
	// Recovered counts crash points whose recovery verified clean.
	Recovered int64
	// ErrorsInjected/TornInjected/CorruptInjected sum the fault planes'
	// injection counters.
	ErrorsInjected  int64
	TornInjected    int64
	CorruptInjected int64
}

// Merge folds other into c (aggregating swarm workers).
func (c *CrashStats) Merge(other CrashStats) {
	c.Probes += other.Probes
	c.PointsExplored += other.PointsExplored
	c.Recovered += other.Recovered
	c.ErrorsInjected += other.ErrorsInjected
	c.TornInjected += other.TornInjected
	c.CorruptInjected += other.CorruptInjected
}

// crashPoints samples the write indices of a window of w writes, into
// pts' memory: all of them when w <= crashPointsPerOp, otherwise an even
// spread of crashPointsPerOp including 0 and w-1.
func crashPoints(pts []int, w int) []int {
	m := min(w, crashPointsPerOp)
	pts = pts[:0]
	for i := range m {
		pts = append(pts, i*(w-1)/max(m-1, 1))
	}
	return pts
}

// crashWindow executes op once on the plane's target inside a fault
// window, which marks every write that persists as a crash point, and
// returns the window's write count. The operation's errno is irrelevant
// here — failing operations have write windows too. The window is
// bracketed by remounts exactly as the target's tracker brackets a normal
// step: the first runs before the window opens — its flushes belong to
// the previous state — and the second inside it, so sync-path writes
// (journal commits) are crash-testable.
func (e *engine) crashWindow(p *CrashPlane, op workload.Op) (int, error) {
	e.probe.idle()
	err := e.cfg.Kernel.Remount(p.Mount)
	e.probe.remounted()
	if err != nil {
		return 0, fmt.Errorf("pre-op: %w", err)
	}
	p.Injector.StartWindow()
	e.execute(op, e.memoOf(op), p.Mount, p.Target)
	e.probe.ran()
	err = e.cfg.Kernel.Remount(p.Mount)
	e.probe.remounted()
	p.Injector.EndWindow()
	if err != nil {
		return 0, fmt.Errorf("post-op: %w", err)
	}
	return p.Injector.WindowWrites(), nil
}

// crashKey names one probe: a state, an operation (by the engine's memo
// of it, one per op for the whole run) and a target.
type crashKey struct {
	state  abstraction.State
	op     *opMemo
	target int
}

// crash crash-tests op's write window on every plane, from the current
// concrete state. Each (state, op, plane) triple is probed once per
// run. The probe always leaves the target back in its pre-probe state,
// so the engine's normal step proceeds unchanged.
func (s *search) crash(e *engine, depth int, op workload.Op) error {
	m := e.memoOf(op)
	for i := range e.cfg.Crash.Planes {
		if !e.budgetLeft() {
			return nil
		}
		p := &e.cfg.Crash.Planes[i]
		key := crashKey{e.curHash, m, p.Target}
		if s.crashSeen[key] {
			continue
		}
		s.crashSeen[key] = true
		if err := e.probePlane(depth, op, p); err != nil {
			return fmt.Errorf("mc: crash probe %s: %w", p.Name, err)
		}
		if e.res.Bug != nil {
			return nil
		}
	}
	return nil
}

// probePlane crash-tests op's write window on one plane out of a SINGLE
// execution.
//
// This is the crash oracle's recovery session: the device image is
// checkpointed exactly once (an undo frame: charged as the full read it
// stands for, paid as the pages the probe goes on to write), one
// execution of the window both measures its write count and marks the
// injector's write log at every write as it happens, and the log's
// touched set scopes every subsequent power cycle and the final rollback
// to the bytes that actually diverged. The log keeps bytes only until
// the window closes: recovery writes extend the touched set alone. The
// crash points are judged back to back — each power cycle takes the
// diverged pages back to the frame and lands the next point's log prefix
// on them, directly over the previous recovered state, with no rollback
// in between (the touched set plus the window's write set bound the
// divergence) — and the probe rolls back once, at the end. Compared to
// the per-point reference flow (reprobe: re-execute the window once per
// point, revert the whole media twice per point) a probe of K points
// costs 1 execution instead of 1+K, K warm recovery mounts and one delta
// rollback.
//
// Post-recovery verdicts are memoized per probe under the masked bytes
// of the media regions that diverged from the pre-op image (crashMemo):
// crash points that recover to state-equivalent media (common when
// consecutive writes land in masked journal space) are judged once.
func (e *engine) probePlane(depth int, op workload.Op, p *CrashPlane) error {
	e.probe.idle()
	err := p.Media.OpenFrame(probeFrame)
	e.probe.checkpointed()
	if err != nil {
		return err
	}
	defer p.Media.CloseFrame(probeFrame)
	// From here until the probe ends, the touch log's touched set holds
	// the media's divergence from the frame; rollback resets it whenever
	// media is rolled back.
	p.Injector.StartTouchLog()
	defer p.Injector.StopTouchLog()
	b0, er := e.metaHash(p)
	e.probe.hashed()
	if er != errno.OK {
		return fmt.Errorf("hashing pre-op state: %w", er)
	}
	// The one execution: measures the window's write count AND marks the
	// log at every write.
	w, err := e.crashWindow(p, op)
	if err != nil {
		return err
	}
	e.countCrashExec()
	b1, er := e.metaHash(p)
	e.probe.hashed()
	if er != errno.OK {
		return fmt.Errorf("hashing post-op state: %w", er)
	}
	e.res.Crash.Probes++
	// The window's write set, read BEFORE anything resets the log: every
	// crash image diverges from the frame only inside it, so it is the
	// `extra` of every install once the log has been reset. A log that
	// lost a write bounds nothing, and vouches for no image either.
	capRegions, ok := p.Injector.AppendTouched(e.crashRegions.window[:0])
	e.crashRegions.window = capRegions
	if !ok {
		return fmt.Errorf("write window of %s: %w", op, fault.ErrTouchLogLost)
	}

	points := crashPoints(e.crashPts, w)
	e.crashPts = points
	rec := journal.CrashRecord{
		Target:     p.Target,
		TargetName: p.Name,
		Points:     points,
		Writes:     w,
		OK:         true,
	}

	var opName string // a heatmap's row label, rendered once per run
	if e.res.CrashHeatmap != nil {
		opName = e.memoOf(op).rowLabel(op)
	}
	e.crashMemo.reset()
	for _, k := range points {
		if !e.budgetLeft() {
			break
		}
		img, fired, err := p.Injector.CrashImage(k)
		if err != nil {
			return fmt.Errorf("crash point %d of %s: %w", k, op, err)
		}
		if !fired {
			// Write k failed (a fault rule erred it): it persisted nothing,
			// so there is no crash point to test.
			continue
		}
		e.res.Crash.PointsExplored++
		e.probe.crashPoint()
		d, verdict := e.judgeCrashPoint(p, op, k, w, img, capRegions, b0, b1)
		e.res.CrashHeatmap.Record(opName, k, w, verdict)
		e.probe.crashVerdict(depth, op, p.Name, k, w, verdict)
		if d != nil {
			if err := e.restorePlane(p, capRegions); err != nil {
				return fmt.Errorf("rolling back crash probe: %w", err)
			}
			rec.OK = false
			e.probe.crashProbed(depth, op, rec)
			e.report(d, op, &journal.CrashSpec{Target: p.Target, TargetName: p.Name, Write: k})
			return nil
		}
		e.res.Crash.Recovered++
	}
	// One rollback for the whole probe: media currently holds the last
	// recovered crash state (or the post-op state when no point fired).
	if err := e.restorePlane(p, capRegions); err != nil {
		return fmt.Errorf("rolling back crash probe: %w", err)
	}
	e.probe.crashProbed(depth, op, rec)
	return nil
}

// crashVerdict is the state-dependent half of one crash point's
// judgment: the fsck report and (for strict planes) the recovered
// abstract state. The probe memoizes it under the masked stream of the
// recovered media's divergence from the pre-op image — valid for any
// crash point of the same probe that recovers to state-equivalent
// media.
type crashVerdict struct {
	fsckProbs []string
	state     abstraction.State
	stateErr  errno.Errno
	hasState  bool
}

// inspect runs the plane's post-recovery checks on the mounted,
// recovered target, abstracting its state with hash.
func (e *engine) inspect(p *CrashPlane, hash func(*CrashPlane) (abstraction.State, errno.Errno)) (v crashVerdict) {
	if p.Fsck != nil {
		v.fsckProbs = p.Fsck()
		e.probe.fscked()
	}
	if p.Strict {
		v.state, v.stateErr = hash(p)
		e.probe.hashed()
		v.hasState = true
	}
	return v
}

// crashSite is one crash point: write k of the w in op's window on p.
type crashSite struct {
	p    *CrashPlane
	op   workload.Op
	k, w int
}

// bug renders one crash-consistency discrepancy at the site.
func (s crashSite) bug(details ...string) *checker.Discrepancy {
	where := fmt.Sprintf("%s: crash after write %d/%d of %s", s.p.Name, s.k+1, s.w, s.op)
	return &checker.Discrepancy{Kind: KindCrashConsistency, Op: s.op.String(), Details: append([]string{where}, details...)}
}

// discrepancy judges the verdict against one concrete crash point:
// fsck must be clean and — for strict planes — the recovered metadata
// state must equal the pre-op (b0) or post-op (b1) state. Nil when the
// recovery is consistent.
func (v crashVerdict) discrepancy(at crashSite, b0, b1 abstraction.State) *checker.Discrepancy {
	switch {
	case len(v.fsckProbs) > 0:
		return at.bug(append([]string{"fsck after recovery:"}, v.fsckProbs...)...)
	case !v.hasState:
		return nil
	case v.stateErr != errno.OK:
		return at.bug(fmt.Sprintf("hashing recovered state: %v", v.stateErr))
	case v.state != b0 && v.state != b1:
		// Copies, not slices: a slice of v, b0 or b1 handed to Sprintf
		// would move them to the heap on every call, this branch or not.
		return at.bug(
			"recovered state matches neither the pre-op nor the post-op state",
			fmt.Sprintf("recovered %x", [8]byte(v.state[:8])),
			fmt.Sprintf("pre-op    %x", [8]byte(b0[:8])),
			fmt.Sprintf("post-op   %x", [8]byte(b1[:8])))
	}
	return nil
}

// label names the verdict for the heatmap and the event stream: bug on
// any discrepancy; for strict planes (hasState), which acknowledged
// state recovery landed on; fsck-repaired for a non-strict plane's
// clean recovery.
func (v crashVerdict) label(d *checker.Discrepancy, b0 abstraction.State) string {
	switch {
	case d != nil:
		return stream.VerdictBug
	case v.hasState && v.state == b0:
		return stream.VerdictB0
	case v.hasState:
		return stream.VerdictB1
	default:
		return stream.VerdictFsckRepaired
	}
}

// judgeCrashPoint power-cycles the plane on one crash image — the probe
// frame plus img, the write log's prefix up to the point — and judges
// the recovered state, returning the verdict label (Verdict* constants)
// alongside any discrepancy. Before running the expensive checks it
// reads the recovered media's divergence from the pre-op image —
// capRegions plus whatever recovery itself wrote — into the memo, and
// reuses the verdict of any earlier point in this probe that recovered
// to media identical outside the mask. Callable from ANY media state whose divergence
// from the frame is bounded by capRegions plus the touch log (the post-op
// state, or a previous point's recovered state); returns with media ==
// image-after-recovery. The caller rolls back once after the last point.
func (e *engine) judgeCrashPoint(p *CrashPlane, op workload.Op, k, w int, img []fault.Write,
	capRegions []fault.Region, b0, b1 abstraction.State) (*checker.Discrepancy, string) {

	at := crashSite{p, op, k, w}
	if err := e.powerCycle(p, func() error { return e.install(p, capRegions, img) }); err != nil {
		return at.bug(fmt.Sprintf("recovery failed: %v", err)), stream.VerdictBug
	}
	// Fast path: the masked stream of everything that diverged from the
	// frame — the crash image's writes plus recovery's own (journal
	// replay). Planes with no post-recovery checks at all have nothing
	// to memoize, so skip the reads.
	var v crashVerdict
	keyed, hit := false, false
	if p.Strict || p.Fsck != nil {
		if keyed = e.divergenceStream(p, capRegions); keyed {
			v, hit = e.crashMemo.lookup()
		}
		e.probe.digested()
	}
	if !hit {
		v = e.inspect(p, e.metaHash)
		if keyed {
			e.crashMemo.keep(v)
		}
	}
	d := v.discrepancy(at, b0, b1)
	return d, v.label(d, b0)
}

// divergenceStream appends to the memo's arena the masked stream of the
// media's divergence from the probe frame: capRegions, the window's write
// set, merged with the touched set, which covers the crash image's writes
// and recovery's own. ok == false when the log is lost or a read failed.
func (e *engine) divergenceStream(p *CrashPlane, capRegions []fault.Region) (ok bool) {
	regions, ok := p.Injector.AppendTouched(append(e.crashRegions.union[:0], capRegions...))
	if e.crashRegions.union = regions; !ok {
		return false
	}
	return e.crashMemo.stream(p, regions)
}

// countCrashExec charges one probed execution against the op budget —
// crash probes dominate a crash-exploration run's cost and must respect
// MaxOps like every other execution.
func (e *engine) countCrashExec() {
	e.res.Ops++
	e.probe.executed(&e.res, len(e.trail), nil)
}

// restorePlane rolls the plane back to the probe frame, as a timed phase
// of the recovery session.
func (e *engine) restorePlane(p *CrashPlane, extra []fault.Region) error {
	e.probe.idle()
	err := e.rollback(p, func() error { return e.install(p, extra, nil) })
	e.probe.restored()
	return err
}

// reprobe is the crash oracle's reference flow, kept independent of
// probePlane's recovery session (no touched-set deltas, no verdict memo,
// no mark reused across executions) so replay and ddmin cross-check what
// the session found: measure op's write window on p at the targets'
// CURRENT state, then for every point still inside it re-execute the
// window, power-cycle on the whole pre-op image plus the point's log
// prefix and judge, rolling back to the whole image after each run. The
// pre-op image is the probe frame, and the whole media goes back to it
// every time: the same two Media calls install both flows' images. Each
// of its walks is a fresh package-level one, not the engine's reused walk
// memory.
// Returns the first discrepancy and its write index.
func (e *engine) reprobe(p *CrashPlane, op workload.Op, points []int) (*checker.Discrepancy, int, error) {
	metaHash := func(p *CrashPlane) (abstraction.State, errno.Errno) {
		return abstraction.Hash(e.cfg.Kernel, p.Mount, e.metaOpts())
	}
	if err := p.Media.OpenFrame(probeFrame); err != nil {
		return nil, 0, err
	}
	defer p.Media.CloseFrame(probeFrame)
	whole := []fault.Region{{Len: p.Media.Size()}}
	loadPre := func() error { return p.Media.RevertFrame(probeFrame, whole) }
	// The log's base is the frame: here, and again after every rollback.
	p.Injector.StartTouchLog()
	defer p.Injector.StopTouchLog()
	b0, er := metaHash(p)
	if er != errno.OK {
		return nil, 0, fmt.Errorf("hashing pre-op state: %w", er)
	}
	w, err := e.crashWindow(p, op)
	if err != nil {
		return nil, 0, err
	}
	b1, er := metaHash(p)
	if er != errno.OK {
		return nil, 0, fmt.Errorf("hashing post-op state: %w", er)
	}
	if err := e.rollback(p, loadPre); err != nil {
		return nil, 0, fmt.Errorf("rolling back measurement run: %w", err)
	}
	for _, k := range points {
		if k >= w {
			continue // the window shrank below the recorded crash point
		}
		if _, err := e.crashWindow(p, op); err != nil {
			return nil, 0, err
		}
		img, fired, err := p.Injector.CrashImage(k)
		if err != nil {
			return nil, 0, fmt.Errorf("crash point %d of %s: %w", k, op, err)
		}
		var d *checker.Discrepancy
		if fired {
			at := crashSite{p, op, k, w}
			err := e.powerCycle(p, func() error {
				if err := loadPre(); err != nil {
					return err
				}
				return p.Media.Patch(img)
			})
			if err != nil {
				d = at.bug(fmt.Sprintf("recovery failed: %v", err))
			} else {
				d = e.inspect(p, metaHash).discrepancy(at, b0, b1)
			}
		}
		if err := e.rollback(p, loadPre); err != nil {
			return nil, 0, fmt.Errorf("rolling back crash run: %w", err)
		}
		if d != nil {
			return d, k, nil
		}
	}
	return nil, 0, nil
}

// crashPlaneFor finds the crash plane of a recorded target index.
func crashPlaneFor(cfg *Config, target int) (*CrashPlane, error) {
	if cfg.Crash != nil {
		for i := range cfg.Crash.Planes {
			if cfg.Crash.Planes[i].Target == target {
				return &cfg.Crash.Planes[i], nil
			}
		}
	}
	return nil, fmt.Errorf("mc: crash replay: no crash plane for target %d (session built without crash exploration?)", target)
}

// Package journal is MCFS's flight recorder: an append-only, crash-safe
// JSONL journal of every nondeterministic choice the model-checking
// engine makes. Spin leaves a replayable `.trail` file behind every
// verification run; MCFS inherits that contract and extends it to the
// whole exploration — not just the failing trail, but each operation
// selected, the errnos every target returned, the abstract state hash
// reached, the visited-table decision (novel/expand/pruned), and every
// backtrack, tagged with the swarm worker that performed it.
//
// The journal makes three things possible that an in-memory BugReport
// cannot provide:
//
//   - post-mortem: a long swarm run that dies (or is killed) leaves a
//     record of exactly what it explored, readable with Load;
//   - deterministic replay: mc.ReplayJournal re-executes the recorded
//     choices against fresh file systems and verifies every recorded
//     errno and state hash reproduces (and that the recorded bug does);
//   - repro bundles: the journal tail, the bug trail, and a minimized
//     trail ship together as a standalone directory a file-system
//     developer can replay without the run that produced it.
//
// Format: one JSON object per line ("JSONL"). Each record carries a
// type tag `t`, a worker id `w`, and a per-worker sequence number, so a
// shared journal interleaving several swarm workers' records can be
// de-multiplexed after the fact. Writes are buffered and batched (one
// flush per FlushEvery records, not one per record) so the engine's hot
// path stays within noise of the unjournaled speed; bug records flush
// and sync immediately, because the crash right after a bug is the one
// that matters. The reader tolerates a truncated final line — the
// expected artifact of a crash mid-append.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"mcfs/internal/checker"
	"mcfs/internal/obs"
	"mcfs/internal/vfs"
	"mcfs/internal/workload"
)

// Version identifies the journal format, stored in every meta record.
const Version = 1

// Record type tags.
const (
	// TypeMeta opens a worker's journal: run configuration + initial
	// state hash.
	TypeMeta = "meta"
	// TypeOp is one explored operation: the op, per-target errnos, the
	// post-op abstract state hash, and the visited-table decision.
	TypeOp = "op"
	// TypeBacktrack marks the engine restoring the pre-op state.
	TypeBacktrack = "bt"
	// TypeBug carries the discrepancy and its full trail.
	TypeBug = "bug"
	// TypeCrash records one crash-consistency probe: the operation whose
	// write window was crash-tested, the crash points sampled, and the
	// verdict.
	TypeCrash = "crash"
	// TypeDone closes a worker's journal with the run's counters.
	TypeDone = "done"
)

// OpRecord is one serialized workload operation. The kind is stored by
// name (stable across versions), everything else by value.
type OpRecord struct {
	Kind  string `json:"kind"`
	Path  string `json:"path,omitempty"`
	Path2 string `json:"path2,omitempty"`
	Off   int64  `json:"off,omitempty"`
	Size  int64  `json:"size,omitempty"`
	Byte  byte   `json:"byte,omitempty"`
	Mode  uint32 `json:"mode,omitempty"`
}

// EncodeOp serializes a workload operation.
func EncodeOp(op workload.Op) OpRecord {
	return OpRecord{
		Kind:  op.Kind.String(),
		Path:  op.Path,
		Path2: op.Path2,
		Off:   op.Off,
		Size:  op.Size,
		Byte:  op.Byte,
		Mode:  uint32(op.Mode),
	}
}

// Decode reconstructs the workload operation. Journals and bundles are
// read back from disk, so an extent no engine run records — a negative
// offset or size, or one reaching past the largest single write the
// engine issues (checker.MaxEqualizationPad) — is an error here, never
// an allocation or a panic in the target that executes it.
func (r OpRecord) Decode() (workload.Op, error) {
	kind, ok := workload.KindFromString(r.Kind)
	if !ok {
		return workload.Op{}, fmt.Errorf("journal: unknown op kind %q", r.Kind)
	}
	const limit = checker.MaxEqualizationPad
	if r.Off < 0 || r.Size < 0 || r.Off > limit || r.Size > limit-r.Off {
		return workload.Op{}, fmt.Errorf("journal: %s op extent off=%d size=%d outside [0, %d]", r.Kind, r.Off, r.Size, limit)
	}
	return workload.Op{
		Kind:  kind,
		Path:  r.Path,
		Path2: r.Path2,
		Off:   r.Off,
		Size:  r.Size,
		Byte:  r.Byte,
		Mode:  vfs.Mode(r.Mode),
	}, nil
}

// EncodeTrail serializes an operation trail.
func EncodeTrail(trail []workload.Op) []OpRecord {
	out := make([]OpRecord, len(trail))
	for i, op := range trail {
		out[i] = EncodeOp(op)
	}
	return out
}

// DecodeTrail reconstructs an operation trail.
func DecodeTrail(recs []OpRecord) ([]workload.Op, error) {
	out := make([]workload.Op, len(recs))
	for i, r := range recs {
		op, err := r.Decode()
		if err != nil {
			return nil, fmt.Errorf("journal: trail op %d: %w", i, err)
		}
		out[i] = op
	}
	return out, nil
}

// Meta describes the run that produced a worker's records.
type Meta struct {
	Version   int      `json:"version"`
	Seed      int64    `json:"seed"`
	MaxDepth  int      `json:"max_depth"`
	MaxOps    int64    `json:"max_ops,omitempty"`
	MaxStates int64    `json:"max_states,omitempty"`
	Targets   []string `json:"targets,omitempty"`
	Equalize  bool     `json:"equalize_free_space,omitempty"`
	Majority  bool     `json:"majority_vote,omitempty"`
	// InitState is the hex abstract hash of the initial (empty) state.
	InitState string `json:"init_state,omitempty"`
}

// BugRecord is a journaled discrepancy plus its replayable trail.
type BugRecord struct {
	// Kind, Op, and Details mirror checker.Discrepancy.
	Kind    string   `json:"kind"`
	Op      string   `json:"op"`
	Details []string `json:"details,omitempty"`
	// Trail is the operation sequence from the initial state.
	Trail []OpRecord `json:"trail"`
	// OpsExecuted counts operations executed up to detection.
	OpsExecuted int64 `json:"ops_executed"`
	// Crash, when set, marks a crash-consistency bug: the trail's final
	// operation must be crash-tested at Crash.Write instead of executed
	// normally.
	Crash *CrashSpec `json:"crash,omitempty"`
}

// CrashSpec pins the crash point of a crash-consistency bug: the write
// (by in-window index) of the trail's FINAL operation at which power was
// cut on the named target. Together with the trail it makes the bug
// deterministically replayable.
type CrashSpec struct {
	// Target is the index of the crash-tested target in the run's
	// target list; TargetName is its human name (e.g. "ext4#1").
	Target     int    `json:"target"`
	TargetName string `json:"target_name,omitempty"`
	// Write is the in-window write index after which the crash image was
	// captured (write 0 = crash after the first block write of the op).
	Write int `json:"write"`
}

// CrashRecord journals one crash-consistency probe of an operation.
type CrashRecord struct {
	// Op is the operation whose write window was probed.
	Op *OpRecord `json:"op,omitempty"`
	// Target/TargetName identify the probed target.
	Target     int    `json:"target"`
	TargetName string `json:"target_name,omitempty"`
	// Points lists the in-window write indices crash-tested.
	Points []int `json:"points,omitempty"`
	// Writes is the total number of device writes the window performed.
	Writes int `json:"writes"`
	// OK reports that every sampled crash point recovered consistently.
	OK bool `json:"ok"`
}

// DoneRecord closes a worker's journal with its final counters.
type DoneRecord struct {
	Ops          int64  `json:"ops"`
	UniqueStates int64  `json:"unique_states"`
	Revisits     int64  `json:"revisits"`
	Canceled     bool   `json:"canceled,omitempty"`
	Err          string `json:"err,omitempty"`
}

// Record is one journal line. T discriminates which payload is set.
type Record struct {
	T string `json:"t"`
	// W identifies the swarm worker (0 for a single-engine run).
	W int `json:"w,omitempty"`
	// Seq is the per-worker record sequence number, starting at 1.
	Seq int64 `json:"seq,omitempty"`
	// Depth is the DFS depth of op and backtrack records.
	Depth int `json:"depth,omitempty"`

	// Op-record payload.
	Op     *OpRecord `json:"op,omitempty"`
	Errnos []string  `json:"errnos,omitempty"`
	State  string    `json:"state,omitempty"`
	Novel  bool      `json:"novel,omitempty"`
	Expand bool      `json:"expand,omitempty"`

	Meta  *Meta        `json:"meta,omitempty"`
	Bug   *BugRecord   `json:"bug,omitempty"`
	Crash *CrashRecord `json:"crash,omitempty"`
	Done  *DoneRecord  `json:"done,omitempty"`
}

// DefaultFlushEvery is the record batch size between flushes.
const DefaultFlushEvery = 256

// Options configures a Writer.
type Options struct {
	// FlushEvery batches this many records per flush
	// (DefaultFlushEvery when zero or negative).
	FlushEvery int
	// Obs, when set, counts journal records, bytes, and flushes under
	// the obs.MetricJournal* names.
	Obs *obs.Hub
}

// Writer appends records to one journal, safe for concurrent use by
// several swarm workers' Recorders. Writes are buffered; Flush (and any
// bug or done record) pushes them out. The first write error latches:
// later appends are dropped and Err reports it — journaling failure
// must never abort an exploration.
type Writer struct {
	mu         sync.Mutex
	bw         *bufio.Writer
	file       *os.File // non-nil when file-backed (enables fsync)
	pending    int
	flushEvery int
	err        error

	records *obs.Counter
	bytes   *obs.Counter
	flushes *obs.Counter
}

// NewWriter wraps w in a journal writer.
func NewWriter(w io.Writer, opts Options) *Writer {
	fe := opts.FlushEvery
	if fe <= 0 {
		fe = DefaultFlushEvery
	}
	jw := &Writer{
		bw:         bufio.NewWriterSize(w, 64<<10),
		flushEvery: fe,
		records:    opts.Obs.Counter(obs.MetricJournalRecords),
		bytes:      opts.Obs.Counter(obs.MetricJournalBytes),
		flushes:    opts.Obs.Counter(obs.MetricJournalFlushes),
	}
	if f, ok := w.(*os.File); ok {
		jw.file = f
	}
	return jw
}

// Create opens (truncating) a file-backed journal at path.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return NewWriter(f, opts), nil
}

// Append writes one record. Errors latch (see Err); they do not fail
// the caller.
func (w *Writer) Append(rec Record) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.append(rec)
}

func (w *Writer) append(rec Record) {
	if w.err != nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		w.err = fmt.Errorf("journal: marshal: %w", err)
		return
	}
	line = append(line, '\n')
	if _, err := w.bw.Write(line); err != nil {
		w.err = fmt.Errorf("journal: write: %w", err)
		return
	}
	w.records.Inc()
	w.bytes.Add(int64(len(line)))
	w.pending++
	if w.pending >= w.flushEvery {
		w.flushLocked(false)
	}
}

// appendSynced writes one record and forces it (and everything queued
// before it) to stable storage.
func (w *Writer) appendSynced(rec Record) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.append(rec)
	w.flushLocked(true)
}

func (w *Writer) flushLocked(sync bool) {
	if w.err != nil {
		return
	}
	if w.pending > 0 {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("journal: flush: %w", err)
			return
		}
		w.flushes.Inc()
		w.pending = 0
	}
	if sync && w.file != nil {
		if err := w.file.Sync(); err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
		}
	}
}

// Flush pushes buffered records to the underlying writer (and to stable
// storage when file-backed).
func (w *Writer) Flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked(true)
	return w.err
}

// Err reports the first write error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes and, when file-backed, closes the file.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked(true)
	if w.file != nil {
		if err := w.file.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("journal: close: %w", err)
		}
		w.file = nil
	}
	return w.err
}

// Recorder returns a handle stamping the given worker id (and a
// per-worker sequence number) on every record. Handles are cheap; one
// Writer serves any number of concurrent Recorders.
func (w *Writer) Recorder(worker int) *Recorder {
	if w == nil {
		return nil
	}
	return &Recorder{w: w, worker: worker}
}

// Recorder is one worker's journaling handle. All methods are nil-safe:
// a nil *Recorder is a disabled flight recorder costing one branch per
// call, mirroring the nil-*Hub discipline of package obs.
type Recorder struct {
	w      *Writer
	worker int
	seq    atomic.Int64
}

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) stamp(rec *Record) {
	rec.W = r.worker
	rec.Seq = r.seq.Add(1)
}

// Meta opens the worker's journal with the run configuration.
func (r *Recorder) Meta(m Meta) {
	if r == nil {
		return
	}
	rec := Record{T: TypeMeta, Meta: &m}
	r.stamp(&rec)
	r.w.Append(rec)
}

// Op records one explored operation.
func (r *Recorder) Op(depth int, op OpRecord, errnos []string, state string, novel, expand bool) {
	if r == nil {
		return
	}
	rec := Record{
		T: TypeOp, Depth: depth, Op: &op,
		Errnos: errnos, State: state, Novel: novel, Expand: expand,
	}
	r.stamp(&rec)
	r.w.Append(rec)
}

// Backtrack records the engine restoring the state saved at depth.
func (r *Recorder) Backtrack(depth int) {
	if r == nil {
		return
	}
	rec := Record{T: TypeBacktrack, Depth: depth}
	r.stamp(&rec)
	r.w.Append(rec)
}

// Crash records one crash-consistency probe of an operation's write
// window at the given DFS depth.
func (r *Recorder) Crash(depth int, c CrashRecord) {
	if r == nil {
		return
	}
	rec := Record{T: TypeCrash, Depth: depth, Crash: &c}
	r.stamp(&rec)
	r.w.Append(rec)
}

// Bug records a discrepancy and forces the journal to stable storage —
// the crash right after a bug is the one a flight recorder exists for.
func (r *Recorder) Bug(b BugRecord) {
	if r == nil {
		return
	}
	rec := Record{T: TypeBug, Bug: &b}
	r.stamp(&rec)
	r.w.appendSynced(rec)
}

// Done closes the worker's journal with its final counters and flushes.
func (r *Recorder) Done(d DoneRecord) {
	if r == nil {
		return
	}
	rec := Record{T: TypeDone, Done: &d}
	r.stamp(&rec)
	r.w.appendSynced(rec)
}

// Read parses a journal stream. A truncated final line — the signature
// of a crash mid-append — is dropped silently; malformed lines anywhere
// else are an error.
func Read(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var pendingErr error
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			// The malformed line was not the last one: real corruption.
			return nil, pendingErr
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("journal: line %d: %w", lineNo, err)
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	return recs, nil
}

// Load reads a journal file.
func Load(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// WorkerRecords filters recs to one worker, preserving order.
func WorkerRecords(recs []Record, worker int) []Record {
	var out []Record
	for _, r := range recs {
		if r.W == worker {
			out = append(out, r)
		}
	}
	return out
}

// FirstBug returns the first bug record (and its worker id), or nil.
func FirstBug(recs []Record) (*BugRecord, int) {
	for _, r := range recs {
		if r.T == TypeBug && r.Bug != nil {
			return r.Bug, r.W
		}
	}
	return nil, 0
}

// Workers lists the distinct worker ids appearing in recs, in first-
// appearance order.
func Workers(recs []Record) []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range recs {
		if !seen[r.W] {
			seen[r.W] = true
			out = append(out, r.W)
		}
	}
	return out
}

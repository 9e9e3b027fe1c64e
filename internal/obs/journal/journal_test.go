package journal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mcfs/internal/vfs"
	"mcfs/internal/workload"
)

func TestOpRecordRoundTrip(t *testing.T) {
	ops := []workload.Op{
		{Kind: workload.OpCreateFile, Path: "/f0", Mode: vfs.Mode(0o644)},
		{Kind: workload.OpWriteFile, Path: "/f0", Off: 1000, Size: 4096, Byte: 0x55},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
		{Kind: workload.OpTruncate, Path: "/f1", Size: 2048},
		{Kind: workload.OpMkdir, Path: "/d0", Mode: vfs.Mode(0o755)},
	}
	for _, op := range ops {
		got, err := EncodeOp(op).Decode()
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got != op {
			t.Errorf("round trip changed op: %v -> %v", op, got)
		}
	}
	trail, err := DecodeTrail(EncodeTrail(ops))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if trail[i] != ops[i] {
			t.Errorf("trail op %d: %v -> %v", i, ops[i], trail[i])
		}
	}
}

func TestOpRecordUnknownKind(t *testing.T) {
	if _, err := (OpRecord{Kind: "warp_drive"}).Decode(); err == nil {
		t.Fatal("decoding an unknown kind succeeded")
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	r := w.Recorder(0)
	r.Meta(Meta{Version: Version, Seed: 7, MaxDepth: 3, Targets: []string{"verifs1", "verifs2"}, InitState: "abcd"})
	op := EncodeOp(workload.Op{Kind: workload.OpCreateFile, Path: "/f0"})
	r.Op(1, op, []string{"OK", "OK"}, "beef", true, true)
	r.Backtrack(1)
	r.Bug(BugRecord{Kind: "abstract-state", Op: "write_file(/f0)", Trail: []OpRecord{op}, OpsExecuted: 11})
	r.Done(DoneRecord{Ops: 11, UniqueStates: 4, Revisits: 7})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []string{TypeMeta, TypeOp, TypeBacktrack, TypeBug, TypeDone}
	if len(recs) != len(wantTypes) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantTypes))
	}
	for i, rec := range recs {
		if rec.T != wantTypes[i] {
			t.Errorf("record %d type %q, want %q", i, rec.T, wantTypes[i])
		}
		if rec.Seq != int64(i+1) {
			t.Errorf("record %d seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if recs[0].Meta == nil || recs[0].Meta.Seed != 7 {
		t.Errorf("meta payload: %+v", recs[0].Meta)
	}
	if recs[1].Op == nil || recs[1].Op.Kind != "create_file" || !recs[1].Novel {
		t.Errorf("op payload: %+v", recs[1])
	}
	if b, _ := FirstBug(recs); b == nil || b.Kind != "abstract-state" || len(b.Trail) != 1 {
		t.Errorf("bug payload: %+v", b)
	}
	if recs[4].Done == nil || recs[4].Done.Ops != 11 {
		t.Errorf("done payload: %+v", recs[4].Done)
	}
}

func TestReadToleratesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	r := w.Recorder(2)
	r.Meta(Meta{Version: Version})
	r.Op(1, OpRecord{Kind: "create_file", Path: "/f0"}, nil, "aa", true, true)
	w.Flush()

	// A crash mid-append leaves a half-written final line.
	full := buf.String()
	cut := full[:len(full)-10]
	recs, err := Read(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail not tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].T != TypeMeta {
		t.Fatalf("got %d records, want the surviving meta", len(recs))
	}

	// The same garbage NOT at the tail is corruption.
	if _, err := Read(strings.NewReader(cut + "\n" + full)); err == nil {
		t.Fatal("mid-stream corruption not reported")
	}
}

// countingWriter counts Write calls to observe flush batching.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

func TestBatchedFlushing(t *testing.T) {
	var cw countingWriter
	w := NewWriter(&cw, Options{})
	r := w.Recorder(0)
	const n = 2*DefaultFlushEvery + 5
	for i := 0; i < n; i++ {
		r.Op(1, OpRecord{Kind: "read", Path: "/f0"}, nil, "aa", false, false)
	}
	// Two full batches flushed so far, the last 5 records still buffered
	// (a batch of these records is far smaller than the 64 KiB buffer,
	// so bufio itself never spills).
	if cw.writes != 2 {
		t.Errorf("got %d underlying writes for %d records, want 2 batched flushes", cw.writes, n)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 3 {
		t.Errorf("got %d writes after final flush, want 3", cw.writes)
	}
	recs, err := Read(&cw.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Errorf("read back %d records, want %d", len(recs), n)
	}
}

func TestConcurrentRecorders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for wk := 1; wk <= workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			r := w.Recorder(wk)
			r.Meta(Meta{Version: Version, Seed: int64(wk)})
			for i := 0; i < each; i++ {
				r.Op(i%5, OpRecord{Kind: "write_file", Path: fmt.Sprintf("/f%d", wk)}, nil, "aa", i%2 == 0, false)
			}
			r.Done(DoneRecord{Ops: each})
		}(wk)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*(each+2) {
		t.Fatalf("got %d records, want %d", len(recs), workers*(each+2))
	}
	if got := len(Workers(recs)); got != workers {
		t.Fatalf("got %d workers, want %d", got, workers)
	}
	for wk := 1; wk <= workers; wk++ {
		wr := WorkerRecords(recs, wk)
		if len(wr) != each+2 {
			t.Errorf("worker %d: %d records, want %d", wk, len(wr), each+2)
		}
		for i, rec := range wr {
			if rec.Seq != int64(i+1) {
				t.Fatalf("worker %d record %d: seq %d — interleaving broke per-worker order", wk, i, rec.Seq)
			}
		}
		if wr[0].T != TypeMeta || wr[len(wr)-1].T != TypeDone {
			t.Errorf("worker %d: journal not meta-opened/done-closed", wk)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims to be enabled")
	}
	r.Meta(Meta{})
	r.Op(0, OpRecord{}, nil, "", false, false)
	r.Backtrack(0)
	r.Bug(BugRecord{})
	r.Done(DoneRecord{})
	var w *Writer
	w.Append(Record{})
	if w.Recorder(3) != nil {
		t.Fatal("nil writer handed out a live recorder")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterLatchesFirstError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Appending after close must not panic; the first batch's flush
	// fails and the error latches.
	r := w.Recorder(0)
	for i := 0; i < DefaultFlushEvery; i++ {
		r.Op(0, OpRecord{Kind: "read"}, nil, "", false, false)
	}
	if w.Err() == nil {
		t.Fatal("write-after-close did not latch an error")
	}
}

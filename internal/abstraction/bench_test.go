package abstraction

import (
	"fmt"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/kernel"
)

// hashBenchTree mounts a VeriFS2 at /mnt holding three directories of five
// 2 KiB files each: 19 records with the root.
func hashBenchTree(tb testing.TB) *kernel.Kernel {
	tb.Helper()
	k := kernelWithVeriFS2(tb, "/mnt")
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/mnt/d%d", d)
		if e := k.Mkdir(dir, 0755); e != errno.OK {
			tb.Fatal(e)
		}
		for i := 0; i < 5; i++ {
			writeFile(tb, k, fmt.Sprintf("%s/f%d", dir, i), string(make([]byte, 2048)))
		}
	}
	return k
}

// BenchmarkHash measures Algorithm 1 over a populated tree — the
// dominant per-operation cost of the whole model checker.
func BenchmarkHash(b *testing.B) {
	k := hashBenchTree(b)
	opts := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := Hash(k, "/mnt", opts); e != errno.OK {
			b.Fatal(e)
		}
	}
}

// BenchmarkSnapshotWarm is BenchmarkHash through a content memo that has
// seen every file: the walk and its reads, without the content MD5s —
// what the engine pays after an op that wrote no new content.
func BenchmarkSnapshotWarm(b *testing.B) {
	k := hashBenchTree(b)
	opts := New()
	walk := sharedMemo()
	if _, e := walk(k, "/mnt", opts); e != errno.OK {
		b.Fatal(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, e := walk(k, "/mnt", opts)
		if e != errno.OK {
			b.Fatal(e)
		}
		HashRecords(recs, opts)
	}
}

// TestAllocationBudgets keeps the walk's garbage where it is: what is
// left per Hash is the file systems' own (readdir slices, open files),
// one path per node, and a handful per walk; file contents are read into
// one buffer, the memo's when there is one. Comparing equal
// states, which is what the checker does after nearly every operation,
// allocates nothing.
func TestAllocationBudgets(t *testing.T) {
	k := hashBenchTree(t)
	opts := New()
	// 31 today (46 while each open allocated its descriptor, 60 while each
	// read allocated its bytes, 358 before the walk stopped re-parsing its
	// own paths); one more allocation per node would be 50. The race
	// detector adds its own: 36 under -race.
	if n := testing.AllocsPerRun(20, func() { Hash(k, "/mnt", opts) }); n > 50 {
		t.Errorf("Hash of the 19-record tree allocates %v times, budget 50", n)
	}
	// Through a memo that holds every content, the same budget (30
	// today): a hit copies nothing, and the memo's read buffer is warm.
	walk := sharedMemo()
	walk(k, "/mnt", opts)
	if n := testing.AllocsPerRun(20, func() {
		recs, _ := walk(k, "/mnt", opts)
		HashRecords(recs, opts)
	}); n > 50 {
		t.Errorf("a warm walk and hash of the 19-record tree allocates %v times, budget 50", n)
	}
	a, b := diffBenchRecords(), diffBenchRecords()
	if n := testing.AllocsPerRun(20, func() { Diff(a, b, opts) }); n != 0 {
		t.Errorf("Diff of two equal 100-record lists allocates %v times, want 0", n)
	}
}

func diffBenchRecords() []Record {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{Path: fmt.Sprintf("/f%03d", i), Kind: "file", Size: int64(i)}
	}
	return recs
}

// BenchmarkSnapshotDiff measures the record diff used in discrepancy
// reports.
func BenchmarkSnapshotDiff(b *testing.B) {
	recs, other := diffBenchRecords(), diffBenchRecords()
	other[50].Size = 9999
	opts := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := Diff(recs, other, opts); len(d) != 1 {
			b.Fatal("diff broken")
		}
	}
}

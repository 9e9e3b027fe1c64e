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

// BenchmarkSnapshotWarm is BenchmarkHash through a memo that has seen
// every file, into a reused record buffer: the walk and its reads,
// without the content MD5s — what the engine pays after an op that
// wrote no new content.
func BenchmarkSnapshotWarm(b *testing.B) {
	k := hashBenchTree(b)
	opts := New()
	m := NewMemo()
	recs, e := m.Snapshot(nil, k, "/mnt", opts)
	if e != errno.OK {
		b.Fatal(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, e = m.Snapshot(recs[:0], k, "/mnt", opts); e != errno.OK {
			b.Fatal(e)
		}
		HashRecords(recs, opts)
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

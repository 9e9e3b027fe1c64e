package tracker

import (
	"runtime"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/workload"
)

// smallWrite is the write set of the cost tests: one byte into one file.
func smallWrite(t testing.TB, lt *lawTarget, b byte) {
	t.Helper()
	op := workload.Op{Kind: workload.OpWriteFile, Path: "/f0", Size: 1, Byte: b}
	if res := workload.Execute(lt.k, lawMount, op); res.Err != errno.OK {
		t.Fatalf("%s: %v", op, res.Err)
	}
}

// threeFiles populates the target with the default pool's three files.
func threeFiles(t testing.TB, lt *lawTarget) {
	t.Helper()
	for _, op := range []workload.Op{
		{Kind: workload.OpMkdir, Path: "/d0", Mode: 0o755},
		{Kind: workload.OpCreateFile, Path: "/f0", Mode: 0o644},
		{Kind: workload.OpCreateFile, Path: "/f1", Mode: 0o644},
		{Kind: workload.OpCreateFile, Path: "/d0/f2", Mode: 0o644},
		{Kind: workload.OpWriteFile, Path: "/f1", Size: 4096, Byte: 1},
		{Kind: workload.OpWriteFile, Path: "/d0/f2", Off: 1000, Size: 4096, Byte: 2},
	} {
		if res := workload.Execute(lt.k, lawMount, op); res.Err != errno.OK {
			t.Fatalf("%s: %v", op, res.Err)
		}
	}
}

// TestCheckpointCostTracksWriteSet is the regression guard on what a
// checkpoint allocates: after one small write, Checkpoint + Restore must
// cost about the write set — not the 16 MiB image of an xfs volume, and
// not VeriFS1's whole fixed inode array twice.
func TestCheckpointCostTracksWriteSet(t *testing.T) {
	for name, limit := range map[string]uint64{
		"remount/xfs":            64 << 10,
		"checkpoint-api/verifs1": 16 << 10,
	} {
		t.Run(name, func(t *testing.T) {
			lt := lawTargets()[name](t)
			threeFiles(t, lt)
			// Once unmeasured: lazily built state (mount caches, FUSE
			// buffers) is not a checkpoint's cost.
			smallWrite(t, lt, 1)
			if err := lt.tr.Checkpoint(0); err != nil {
				t.Fatal(err)
			}
			if err := lt.tr.Restore(0); err != nil {
				t.Fatal(err)
			}
			smallWrite(t, lt, 2)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := lt.tr.Checkpoint(1); err != nil {
				t.Fatal(err)
			}
			if err := lt.tr.Restore(1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
				t.Errorf("Checkpoint+Restore after a one-byte write allocated %d bytes, want < %d", got, limit)
			} else {
				t.Logf("Checkpoint+Restore after a one-byte write allocated %d bytes (limit %d)", got, limit)
			}
		})
	}
}

// BenchmarkCheckpointRestore times one write-checkpoint-restore cycle per
// tracker × file system, the unit of backtracking.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, bc := range []struct{ name, target string }{
		{"verifs1", "checkpoint-api/verifs1"},
		{"verifs2", "checkpoint-api/verifs2"},
		{"ext4", "remount/ext4"},
		{"xfs16m", "remount/xfs"},
		{"jffs2", "remount/jffs2"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lt := lawTargets()[bc.target](b)
			threeFiles(b, lt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smallWrite(b, lt, byte(i))
				if err := lt.tr.Checkpoint(uint64(i)); err != nil {
					b.Fatal(err)
				}
				if err := lt.tr.Restore(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package verifs2

import (
	"fmt"
	"testing"

	"mcfs/internal/allocs"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// nestedFS returns a VeriFS2 holding files one-block files, and the
// nested cycle the laws below run on it: checkpoint A, a one-byte write,
// checkpoint B, another, restore B, restore A. Each write copies the
// file's inode and its block, and the first copy is the one a nested
// snapshot shares.
func nestedFS(t testing.TB, files int) (*FS, func()) {
	t.Helper()
	f := New(simclock.New())
	var ino vfs.Ino
	for i := 0; i < files; i++ {
		var e errno.Errno
		if ino, e = f.Create(f.Root(), fmt.Sprintf("f%02d", i), 0o644, 0, 0); e != errno.OK {
			t.Fatal(e)
		}
		if _, e = f.Write(ino, 0, make([]byte, 100)); e != errno.OK {
			t.Fatal(e)
		}
	}
	one := []byte{1}
	key := uint64(0)
	must := func(e errno.Errno) {
		if e != errno.OK {
			t.Fatal(e)
		}
	}
	return f, func() {
		a, b := key, key+1
		key += 2
		must(f.CheckpointState(a))
		_, e := f.Write(ino, 0, one)
		must(e)
		must(f.CheckpointState(b))
		_, e = f.Write(ino, 1, one)
		must(e)
		must(f.RestoreState(b))
		must(f.RestoreState(a))
	}
}

// TestNestedCycleAllocatesNothing: once warm, a nested checkpoint cycle
// allocates nothing, at 3 files as at 24. The outer restore recycles the
// inode and block copied before the nested checkpoint, which that
// checkpoint's snapshot shared until its own restore.
func TestNestedCycleAllocatesNothing(t *testing.T) {
	noCollections(t)
	for _, files := range []int{3, 24} {
		f, cycle := nestedFS(t, files)
		if n := allocs.Count(1000, cycle); n != 0 {
			t.Errorf("with %d files 1000 warm nested cycles allocate %d times, want 0", files, n)
		}
		if f.SnapshotCount() != 0 {
			t.Errorf("the cycles left %d snapshots open", f.SnapshotCount())
		}
	}
}

// BenchmarkNestedCycle is TestNestedCycleAllocatesNothing's cycle at 3
// files.
func BenchmarkNestedCycle(b *testing.B) {
	_, cycle := nestedFS(b, 3)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

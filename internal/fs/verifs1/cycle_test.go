package verifs1

import (
	"fmt"
	"math"
	"testing"

	"mcfs/internal/allocs"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// nestedFS returns a VeriFS1 holding files one-block files, and the
// nested cycle the laws below run on it: checkpoint A, a one-byte write,
// checkpoint B, another, restore B, restore A. Each write copies the
// file's buffer, and the first copy is the one a nested snapshot shares.
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
// copy made before the nested checkpoint, which that checkpoint's
// snapshot shared until its own restore.
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

// TestRecyclingSurvivesTheEpochWrap: a snapshot taken before the epoch
// counter wraps and left open after it does not stop restores from
// recycling what later epochs copied. The wrap marks the snapshot, like
// its inodes, with epoch 0; had it kept the epoch it was taken in, the
// bound would stay above every epoch the counter reaches again, and each
// cycle would copy into new memory.
func TestRecyclingSurvivesTheEpochWrap(t *testing.T) {
	noCollections(t)
	f, _ := nestedFS(t, 3)
	ino := vfs.Ino(2) // the first file nestedFS made
	f.epoch = math.MaxUint32 - 1
	if e := f.CheckpointState(0); e != errno.OK {
		t.Fatal(e)
	}
	key := uint64(0)
	cycle := func() {
		key++
		if e := f.CheckpointState(key); e != errno.OK {
			t.Fatal(e)
		}
		if _, e := f.Write(ino, 0, []byte{byte(key)}); e != errno.OK {
			t.Fatal(e)
		}
		if e := f.RestoreState(key); e != errno.OK {
			t.Fatal(e)
		}
	}
	cycle() // the wrap: the outer snapshot was taken in the last epoch before it
	if f.epoch > 3 {
		t.Fatalf("the counter is at %d, want it past the wrap", f.epoch)
	}
	if n := allocs.Count(1000, cycle); n != 0 {
		t.Errorf("with a snapshot from before the wrap open, 1000 warm cycles allocate %d times, want 0", n)
	}
}

// TestInodeLimitHoldsWhileTheArrayGrows: the array's memory grows as
// slots are first used, but the limit, StatFS and StateBytes are those of
// the fixed array: eight slots, the root's included, and 96 bytes a slot
// for all nine of them (slot 0 is never used).
func TestInodeLimitHoldsWhileTheArrayGrows(t *testing.T) {
	f := New(simclock.New(), WithMaxInodes(8))
	stat := func(free int64, bytes int64) {
		t.Helper()
		st, e := f.StatFS()
		if e != errno.OK || st.TotalInodes != 8 || st.FreeInodes != free {
			t.Fatalf("StatFS = %d of %d inodes free, %v; want %d of 8", st.FreeInodes, st.TotalInodes, e, free)
		}
		if got := f.StateBytes(); got != bytes {
			t.Fatalf("StateBytes = %d, want %d", got, bytes)
		}
	}
	stat(7, 9*96)
	dir := f.Root()
	for i := 1; i <= 7; i++ {
		name := fmt.Sprintf("n%d", i) // each entry charges its name and 16
		var e errno.Errno
		if i == 2 {
			dir, e = f.Mkdir(f.Root(), name, 0o755, 0, 0)
		} else {
			_, e = f.Create(dir, name, 0o644, 0, 0)
		}
		if e != errno.OK {
			t.Fatalf("inode %d of 8: %v", i+1, e)
		}
		stat(int64(7-i), int64(9*96+i*18))
	}
	if _, e := f.Create(f.Root(), "full", 0o644, 0, 0); e != errno.ENOSPC {
		t.Errorf("a ninth inode: %v, want ENOSPC", e)
	}
	stat(0, 9*96+7*18)
	// Every entry reached its directory, though creating each child
	// moved the array under the directory's inode.
	for i := 1; i <= 7; i++ {
		parent := dir
		if i <= 2 {
			parent = f.Root()
		}
		if _, e := f.Lookup(parent, fmt.Sprintf("n%d", i)); e != errno.OK {
			t.Errorf("Lookup(n%d): %v", i, e)
		}
	}
	if st, _ := f.Getattr(dir); st.Nlink != 2 {
		t.Errorf("the directory's nlink = %d, want 2", st.Nlink)
	}
	if st, _ := f.Getattr(f.Root()); st.Nlink != 3 {
		t.Errorf("the root's nlink = %d, want 3", st.Nlink)
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

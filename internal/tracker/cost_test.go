package tracker

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/jffs2sim"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
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

// moreFiles adds n one-block files under /d0 to a target threeFiles
// populated.
func moreFiles(t testing.TB, lt *lawTarget, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/d0/g%02d", i)
		for _, op := range []workload.Op{
			{Kind: workload.OpCreateFile, Path: path, Mode: 0o644},
			{Kind: workload.OpWriteFile, Path: path, Size: 100, Byte: byte(i)},
		} {
			if res := workload.Execute(lt.k, lawMount, op); res.Err != errno.OK {
				t.Fatalf("%s: %v", op, res.Err)
			}
		}
	}
}

// TestCheckpointCostTracksWriteSet is the regression guard on what a
// checkpoint allocates. After one small write, Checkpoint + Restore of
// the remount tracker must cost about the write set, not the 16 MiB
// image of an xfs volume. A VeriFS checkpoint allocates nothing once
// warm: its snapshot reuses a table a restore released, and the copies
// an op makes after it come from what the last restore recycled. So a
// warm Checkpoint + Restore allocates 0, also right after a one-byte
// write whose copy the checkpoint must share, and a checkpoint, a
// one-byte write and a restore allocate as often with 24 files as with 3.
func TestCheckpointCostTracksWriteSet(t *testing.T) {
	t.Run("remount/xfs", func(t *testing.T) {
		const limit = 64 << 10
		lt := lawTargets()["remount/xfs"](t)
		threeFiles(t, lt)
		// Once unmeasured: lazily built state (mount caches, device
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
	for _, name := range []string{"checkpoint-api/verifs1", "checkpoint-api/verifs2"} {
		t.Run(name, func(t *testing.T) {
			var withWrite []float64
			for _, extra := range []int{0, 21} {
				lt := lawTargets()[name](t)
				threeFiles(t, lt)
				moreFiles(t, lt, extra)
				key := uint64(0)
				cycle := func(write bool) {
					key++
					if err := lt.tr.Checkpoint(key); err != nil {
						t.Fatal(err)
					}
					if write {
						smallWrite(t, lt, byte(key))
					}
					if err := lt.tr.Restore(key); err != nil {
						t.Fatal(err)
					}
				}
				// AllocsPerRun runs each cycle once unmeasured: the first
				// checkpoint allocates its table, the first write its copies.
				if got := testing.AllocsPerRun(20, func() { cycle(false) }); got != 0 {
					t.Errorf("with %d files a warm Checkpoint+Restore allocates %v times, want 0", 3+extra, got)
				}
				withWrite = append(withWrite, testing.AllocsPerRun(20, func() { cycle(true) }))
				// The write stays outside the window, so the inode it
				// copied is the current epoch's when the checkpoint runs.
				if dirty := mallocsOver(20, func(i int) { smallWrite(t, lt, byte(i)) }, func() { cycle(false) }); dirty != 0 {
					t.Errorf("with %d files 20 warm Checkpoint+Restores, each after a one-byte write, allocate %d times, want 0", 3+extra, dirty)
				}
			}
			if withWrite[0] != withWrite[1] {
				t.Errorf("a warm Checkpoint, one-byte write and Restore allocates %v times with 3 files and %v with 24, want the same", withWrite[0], withWrite[1])
			} else {
				t.Logf("a warm Checkpoint, one-byte write and Restore allocates %v times with 3 files and with 24", withWrite[0])
			}
		})
	}
}

// mallocsOver returns the mallocs of runs calls of f, each after an
// unmeasured between(i). As in testing.AllocsPerRun, one P runs the
// loop; the counter is the process's, so only a run with no goroutine
// of its own reads it clean.
func mallocsOver(runs int, between func(i int), f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs uint64
	for i := 0; i < runs; i++ {
		between(i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return mallocs
}

// TestRemountCycleAllocatesTheMount is the allocation law of the kernel's
// one remount cycle: on an unchanged ext2 volume whose MountCache is
// warm, a Remount, a remount tracker's Checkpoint + Restore, alone and
// nested in an open checkpoint, and a CrashRemount with no power cut
// each allocate exactly what the file system's own unmount + mount
// allocates, which is nothing — the cache hands the next mount the last
// one's FS struct and buffers, the kernel keeps the mount point's record,
// and the device its undo arena across the closing of its last frame —
// and the counts do not grow with the root directory.
func TestRemountCycleAllocatesTheMount(t *testing.T) {
	counts := map[string][]float64{}
	for _, entries := range []int{6, 48} {
		clk := simclock.New()
		d := blockdev.NewRAM("ram0", 256*1024, clk)
		if err := extfs.Mkfs(d, extfs.MkfsOptions{}); err != nil {
			t.Fatal(err)
		}
		opts := extfs.MountOpts{Cache: extfs.NewMountCache()}
		f, err := extfs.MountWith(d, clk, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			if _, e := f.Create(f.Root(), fmt.Sprintf("f%02d", i), 0o644, 0, 0); e != errno.OK {
				t.Fatal(e)
			}
		}
		counts["extfs unmount + mount"] = append(counts["extfs unmount + mount"], testing.AllocsPerRun(20, func() {
			if err = f.Unmount(); err == nil {
				f, err = extfs.MountWith(d, clk, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
		}))
		if err := f.Unmount(); err != nil {
			t.Fatal(err)
		}
		k := kernel.New(clk)
		if err := k.Mount(lawMount, kernel.FilesystemSpec{
			Type:      "ext2",
			Dev:       d,
			Mounter:   func() (vfs.FS, error) { return extfs.MountWith(d, clk, opts) },
			Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
		}, kernel.MountOptions{}); err != nil {
			t.Fatal(err)
		}
		tr := NewRemount(k, lawMount, true)
		key := uint64(0)
		checkpointRestore := func() error {
			key++
			if err := tr.Checkpoint(key); err != nil {
				return err
			}
			return tr.Restore(key)
		}
		// Alone, each cycle's checkpoint is the device's last frame: its
		// Restore lets the undo arena go, and the next checkpoint takes it
		// back.
		counts["RemountTracker Checkpoint + Restore, alone"] = append(counts["RemountTracker Checkpoint + Restore, alone"],
			testing.AllocsPerRun(20, func() {
				if err := checkpointRestore(); err != nil {
					t.Fatal(err)
				}
			}))
		// Nested, as the explorer nests them, an outer checkpoint stays open.
		if err := tr.Checkpoint(0); err != nil {
			t.Fatal(err)
		}
		for name, cycle := range map[string]func() error{
			"Kernel.Remount":                      func() error { return k.Remount(lawMount) },
			"RemountTracker Checkpoint + Restore": checkpointRestore,
			"Kernel.CrashRemount":                 func() error { return k.CrashRemount(lawMount, nil) },
		} {
			counts[name] = append(counts[name], testing.AllocsPerRun(20, func() {
				if err := cycle(); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	own := counts["extfs unmount + mount"]
	if own[0] != 0 || own[1] != 0 {
		t.Errorf("an unchanged extfs remount allocates %v times at 6 and 48 entries, want 0", own)
	}
	for name, got := range counts {
		if got[0] != own[0] || got[1] != own[1] {
			t.Errorf("%s allocates %v times at 6 and 48 root entries; the file system's own remount %v", name, got, own)
		}
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

// sessionTargets mount each device-backed file system the way a session
// does: ext2 and ext4 through one extfs.MountCache, jffs2 through one
// jffs2sim.ScanCache, kept beside the device for every remount.
func sessionTargets() map[string]func(t testing.TB) *lawTarget {
	ext := func(journal bool, typ string) func(testing.TB) *lawTarget {
		return func(t testing.TB) *lawTarget {
			clk := simclock.New()
			k := kernel.New(clk)
			d := blockdev.NewRAM("ram0", 256*1024, clk)
			if err := extfs.Mkfs(d, extfs.MkfsOptions{Journal: journal}); err != nil {
				t.Fatal(err)
			}
			opts := extfs.MountOpts{Cache: extfs.NewMountCache()}
			if err := k.Mount(lawMount, kernel.FilesystemSpec{
				Type:      typ,
				Dev:       d,
				Mounter:   func() (vfs.FS, error) { return extfs.MountWith(d, clk, opts) },
				Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
			}, kernel.MountOptions{}); err != nil {
				t.Fatal(err)
			}
			return &lawTarget{k: k, tr: NewRemount(k, lawMount, true), media: d}
		}
	}
	return map[string]func(t testing.TB) *lawTarget{
		"ext2": ext(false, "ext2"),
		"ext4": ext(true, "ext4"),
		"jffs2": func(t testing.TB) *lawTarget {
			clk := simclock.New()
			k := kernel.New(clk)
			mtd := blockdev.NewMTD("mtd0", 256*1024, 8*1024, clk)
			if err := jffs2sim.Mkfs(mtd); err != nil {
				t.Fatal(err)
			}
			scans := jffs2sim.NewScanCache()
			if err := k.Mount(lawMount, kernel.FilesystemSpec{
				Type:      "jffs2",
				Dev:       mtd,
				Mounter:   func() (vfs.FS, error) { return jffs2sim.MountCached(mtd, clk, scans) },
				Unmounter: func(f vfs.FS) error { return f.(*jffs2sim.FS).Unmount() },
			}, kernel.MountOptions{}); err != nil {
				t.Fatal(err)
			}
			return &lawTarget{k: k, tr: NewRemount(k, lawMount, true), media: mtd}
		},
	}
}

// fillUntilGrown creates empty files in dir until one grows it past its
// first block, or n files when n > 0, and returns how many it created.
func fillUntilGrown(t testing.TB, lt *lawTarget, dir string, n int) int {
	t.Helper()
	for i := 0; n <= 0 || i < n; i++ {
		op := workload.Op{Kind: workload.OpCreateFile, Path: fmt.Sprintf("%s/entry-%03d-%s", dir, i, strings.Repeat("x", 200)), Mode: 0o644}
		if res := workload.Execute(lt.k, lawMount, op); res.Err != errno.OK {
			t.Fatalf("%s: %v", op, res.Err)
		}
		if n > 0 {
			continue
		}
		st, e := lt.k.Stat(lawMount + dir)
		if e != errno.OK {
			t.Fatal(e)
		}
		if st.Size > extfs.BlockSize {
			return i + 1
		}
	}
	return n
}

// TestRemountTrackedStepAllocatesNothing is the allocation law of the
// step the explorer repeats on a remount-tracked file system, mounted as a
// session mounts it: a checkpoint nested in an open one, a remount
// before the op, one op that stages
// metadata, a remount after it, the abstraction walk in its memo's
// memory, and the Restore that rewinds the device and remounts. Warm, it
// allocates nothing on ext2, ext4 and jffs2 — the staged images, the
// inode structs and the interned names and link targets all come from
// memory the mount or its cache already holds — and that stays so with
// eight times the untouched files. The ops are a mkdir, a symlink, and a
// create that grows a full directory by a block (extfs; on jffs2 it is
// one more create).
func TestRemountTrackedStepAllocatesNothing(t *testing.T) {
	const untouched = 3
	for _, kind := range []string{"ext2", "ext4", "jffs2"} {
		t.Run(kind, func(t *testing.T) {
			mk := sessionTargets()[kind]
			full := 8 // jffs2 has no directory blocks: any create will do
			if kind != "jffs2" {
				// How many entries fill the growing directory's first block.
				probe := mk(t)
				if e := probe.k.Mkdir(lawMount+"/grow", 0o755); e != errno.OK {
					t.Fatal(e)
				}
				full = fillUntilGrown(t, probe, "/grow", 0) - 1
			}
			for _, files := range []int{untouched, 8 * untouched} {
				lt := mk(t)
				threeFiles(t, lt)
				moreFiles(t, lt, files-3)
				for _, dir := range []string{"/grow", "/w"} {
					if e := lt.k.Mkdir(lawMount+dir, 0o755); e != errno.OK {
						t.Fatal(e)
					}
				}
				fillUntilGrown(t, lt, "/grow", full)
				// The explorer nests checkpoints: an outer one stays open.
				if err := lt.tr.Checkpoint(0); err != nil {
					t.Fatal(err)
				}
				key := uint64(0)
				last := fmt.Sprintf("%s/grow/entry-999-%s", lawMount, strings.Repeat("x", 200))
				memo := abstraction.NewMemo()
				var records []abstraction.Record
				for _, op := range []struct {
					name string
					do   func(k *kernel.Kernel) errno.Errno
				}{
					{"mkdir", func(k *kernel.Kernel) errno.Errno { return k.Mkdir(lawMount+"/w/m", 0o755) }},
					{"symlink", func(k *kernel.Kernel) errno.Errno { return k.Symlink("../d0/f2", lawMount+"/w/s") }},
					{"create", func(k *kernel.Kernel) errno.Errno {
						fd, e := k.Open(last, vfs.OCreate|vfs.OWrOnly, 0o644)
						if e != errno.OK {
							return e
						}
						return k.Close(fd)
					}},
				} {
					grows := kind != "jffs2" && op.name == "create"
					step := func() {
						key++
						if err := lt.tr.Checkpoint(key); err != nil {
							t.Fatal(err)
						}
						if err := lt.tr.PreOp(); err != nil {
							t.Fatal(err)
						}
						if e := op.do(lt.k); e != errno.OK {
							t.Fatalf("%s: %v", op.name, e)
						}
						if err := lt.tr.PostOp(); err != nil {
							t.Fatal(err)
						}
						if st, _ := lt.k.Stat(lawMount + "/grow"); grows && st.Size != 2*extfs.BlockSize {
							t.Fatalf("the create left /grow %d bytes, want two blocks", st.Size)
						}
						var e errno.Errno
						if records, e = memo.Snapshot(records[:0], lt.k, lawMount, abstraction.New()); e != errno.OK {
							t.Fatal(e)
						}
						if err := lt.tr.Restore(key); err != nil {
							t.Fatal(err)
						}
					}
					step() // the first step fills the memo and the caches
					if got := testing.AllocsPerRun(20, step); got != 0 {
						t.Errorf("with %d untouched files a warm remount-tracked %s step allocates %v times, want 0", files, op.name, got)
					}
				}
			}
		})
	}
}

package extfs

import (
	"fmt"
	"strings"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

func benchVolume(b *testing.B, journal bool) (*FS, blockdev.Device, *simclock.Clock) {
	b.Helper()
	clk := simclock.New()
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := Mkfs(dev, MkfsOptions{Journal: journal}); err != nil {
		b.Fatal(err)
	}
	f, err := Mount(dev, clk)
	if err != nil {
		b.Fatal(err)
	}
	return f, dev, clk
}

func BenchmarkWrite4K(b *testing.B) {
	f, _, _ := benchVolume(b, false)
	ino, e := f.Create(f.Root(), "file", 0644, 0, 0)
	if e != errno.OK {
		b.Fatal(e)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := f.Write(ino, int64(i%16)*4096, buf); e != errno.OK {
			b.Fatal(e)
		}
	}
}

func BenchmarkCreateUnlink(b *testing.B) {
	f, _, _ := benchVolume(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := f.Create(f.Root(), "f", 0644, 0, 0); e != errno.OK {
			b.Fatal(e)
		}
		if e := f.Unlink(f.Root(), "f"); e != errno.OK {
			b.Fatal(e)
		}
	}
}

func BenchmarkSyncJournaled(b *testing.B) {
	f, _, _ := benchVolume(b, true)
	ino, _ := f.Create(f.Root(), "file", 0644, 0, 0)
	buf := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := f.Write(ino, 0, buf); e != errno.OK {
			b.Fatal(e)
		}
		if e := f.Sync(); e != errno.OK {
			b.Fatal(e)
		}
	}
}

// BenchmarkStagedSync times a staged-metadata cycle on a warm mount
// through a MountCache: a mkdir and a symlink stage their blocks' images,
// a Sync writes them out, an rmdir and an unlink free the blocks, and a
// second Sync writes the rest. Each image comes from the images the Syncs
// before it handed back.
func BenchmarkStagedSync(b *testing.B) {
	for _, kind := range []string{"ext2", "ext4"} {
		b.Run(kind, func(b *testing.B) {
			_, dev, clk := benchVolume(b, kind == "ext4")
			cache := NewMountCache()
			f, err := MountWith(dev, clk, MountOpts{Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			target := strings.Repeat("t", 200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, e := f.Mkdir(f.Root(), "d", 0755, 0, 0); e != errno.OK {
					b.Fatal(e)
				}
				if _, e := f.Symlink(target, f.Root(), "s", 0, 0); e != errno.OK {
					b.Fatal(e)
				}
				if e := f.Sync(); e != errno.OK {
					b.Fatal(e)
				}
				if e := f.Rmdir(f.Root(), "d"); e != errno.OK {
					b.Fatal(e)
				}
				if e := f.Unlink(f.Root(), "s"); e != errno.OK {
					b.Fatal(e)
				}
				if e := f.Sync(); e != errno.OK {
					b.Fatal(e)
				}
			}
		})
	}
}

func BenchmarkMountUnmountCycle(b *testing.B) {
	_, dev, clk := benchVolume(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Mount(dev, clk)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Unmount(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFsck(b *testing.B) {
	f, dev, _ := benchVolume(b, false)
	for i := 0; i < 10; i++ {
		name := string(rune('a' + i))
		ino, e := f.Create(f.Root(), name, 0644, 0, 0)
		if e != errno.OK {
			b.Fatal(e)
		}
		if _, e := f.Write(ino, 0, make([]byte, 2048)); e != errno.OK {
			b.Fatal(e)
		}
	}
	if err := f.Unmount(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fsck(dev); err != nil {
			b.Fatal(err)
		}
	}
}

// remountCycle is one unchanged remount through a MountCache: an Unmount
// of the live mount and a MountWith of the same device, which takes over
// the buffers the unmount handed on.
func remountCycle(dev blockdev.Device, clk *simclock.Clock, cache *MountCache, f **FS) error {
	if err := (*f).Unmount(); err != nil {
		return err
	}
	g, err := MountWith(dev, clk, MountOpts{Cache: cache})
	*f = g
	return err
}

func BenchmarkRemount(b *testing.B) {
	for _, kind := range []string{"ext2", "ext4"} {
		b.Run(kind, func(b *testing.B) {
			_, dev, clk := benchVolume(b, kind == "ext4")
			cache := NewMountCache()
			f, err := MountWith(dev, clk, MountOpts{Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := remountCycle(dev, clk, cache, &f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRemountAllocationBudget: an unchanged remount through a MountCache
// allocates nothing. The FS struct, which holds the superblock and the
// journal by value, its block buffers, its two maps, its inode cache's
// entries and Sync's staging come from the cache, where the unmount left
// them. So does a power cut: Drop hands the same memory to the cache as
// Unmount does, and writes nothing. And a cycle whose mount reads 4
// inodes allocates nothing, as one whose mount reads 32 does.
func TestRemountAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		powerCut bool
		budget   float64
	}{{"ext2", false, 0}, {"ext4", false, 0}, {"ext2-power-cut", true, 0}, {"ext4-power-cut", true, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			dev := blockdev.NewRAM("ram0", 256*1024, clk)
			if err := Mkfs(dev, MkfsOptions{Journal: strings.HasPrefix(tc.name, "ext4")}); err != nil {
				t.Fatal(err)
			}
			cache := NewMountCache()
			f, err := MountWith(dev, clk, MountOpts{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if !tc.powerCut {
					err = remountCycle(dev, clk, cache, &f)
				} else {
					_, writes := dev.Counters()
					f.Drop()
					if _, after := dev.Counters(); after != writes {
						t.Fatalf("Drop wrote %d times", after-writes)
					}
					f, err = MountWith(dev, clk, MountOpts{Cache: cache})
				}
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.budget {
				t.Errorf("an unchanged %s cycle allocates %v times, budget %v", tc.name, allocs, tc.budget)
			}
		})
	}
	t.Run("beside-a-live-mount", func(t *testing.T) {
		// The cache takes the FS back only at its Unmount: a mount beside
		// a live one gets its own, and the next mount after the Unmount
		// the first one's.
		clk := simclock.New()
		dev := blockdev.NewRAM("ram0", 256*1024, clk)
		if err := Mkfs(dev, MkfsOptions{}); err != nil {
			t.Fatal(err)
		}
		cache := NewMountCache()
		a, err := MountWith(dev, clk, MountOpts{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MountWith(dev, clk, MountOpts{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatal("a mount beside a live FS got that FS")
		}
		if _, e := a.Getattr(a.Root()); e != errno.OK {
			t.Fatalf("the first FS after a second mount: %v", e)
		}
		if err := a.Unmount(); err != nil {
			t.Fatal(err)
		}
		c, err := MountWith(dev, clk, MountOpts{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if c != a {
			t.Error("the mount after an Unmount did not reuse the unmounted FS")
		}
	})
	t.Run("inodes", func(t *testing.T) {
		clk := simclock.New()
		dev := blockdev.NewRAM("ram0", 256*1024, clk)
		if err := Mkfs(dev, MkfsOptions{Journal: true}); err != nil {
			t.Fatal(err)
		}
		cache := NewMountCache()
		f, err := MountWith(dev, clk, MountOpts{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		var inos []vfs.Ino
		for i := 0; i < 32; i++ {
			ino, e := f.Create(f.Root(), fmt.Sprintf("f%02d", i), 0644, 0, 0)
			if e != errno.OK {
				t.Fatal(e)
			}
			inos = append(inos, ino)
		}
		var allocs []float64
		for _, n := range []int{4, 32} {
			allocs = append(allocs, testing.AllocsPerRun(50, func() {
				if err := remountCycle(dev, clk, cache, &f); err != nil {
					t.Fatal(err)
				}
				for _, ino := range inos[:n] {
					if _, e := f.Getattr(ino); e != errno.OK {
						t.Fatal(e)
					}
				}
			}))
		}
		if allocs[0] != 0 || allocs[1] != 0 {
			t.Errorf("a cycle reading 4 inodes allocates %v times, one reading 32 %v times; want both 0", allocs[0], allocs[1])
		}
	})
}

// linkedDir makes directory "d" under the root holding n hard links to
// one file, named long enough that eight directories' worth of them
// span several blocks, and a subdirectory "sub" with one file in it.
func linkedDir(tb testing.TB, f *FS, n int) (dir vfs.Ino, names []string) {
	tb.Helper()
	dir, e := f.Mkdir(f.Root(), "d", 0755, 0, 0)
	if e != errno.OK {
		tb.Fatal(e)
	}
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("entry-%02d-%s", i, strings.Repeat("x", 40)))
	}
	file, e := f.Create(dir, names[0], 0644, 0, 0)
	for _, name := range names[1:] {
		if e == errno.OK {
			e = f.Link(file, dir, name)
		}
	}
	if e == errno.OK {
		var sub vfs.Ino
		if sub, e = f.Mkdir(dir, "sub", 0755, 0, 0); e == errno.OK {
			_, e = f.Create(sub, "x", 0644, 0, 0)
		}
	}
	if e != errno.OK {
		tb.Fatal(e)
	}
	return dir, names
}

// TestDirectoryOpsAllocateNothing: once its blocks are staged, or after a
// Sync has written them out, a directory is looked up, edited and checked
// for emptiness without an allocation, in a one-block directory and in
// one eight times its size. So is a listing into a buffer an earlier
// listing grew: its names come from the mount's name table.
func TestDirectoryOpsAllocateNothing(t *testing.T) {
	const s = 6
	for _, n := range []int{s, 8 * s} {
		t.Run(fmt.Sprintf("%d-entries", n), func(t *testing.T) {
			f, _, _ := newVolume(t, MkfsOptions{})
			dir, names := linkedDir(t, f, n)
			if got := f.getInode(uint32(dir)).size / BlockSize; (got > 1) != (n > s) {
				t.Fatalf("%d entries fill %d blocks", n, got)
			}
			last := names[n-1]
			file, _ := f.Lookup(dir, last)
			laws := []struct {
				name string
				op   func() errno.Errno
			}{
				{"lookup-hit", func() errno.Errno { _, e := f.Lookup(dir, last); return e }},
				{"lookup-miss", func() errno.Errno {
					if _, e := f.Lookup(dir, "absent"); e != errno.ENOENT {
						return errno.EIO
					}
					return errno.OK
				}},
				{"unlink-link", func() errno.Errno {
					if e := f.Unlink(dir, last); e != errno.OK {
						return e
					}
					return f.Link(file, dir, last)
				}},
				{"rename-there-and-back", func() errno.Errno {
					if e := f.Rename(dir, last, dir, "renamed"); e != errno.OK {
						return e
					}
					return f.Rename(dir, "renamed", dir, last)
				}},
				{"rmdir-not-empty", func() errno.Errno {
					if e := f.Rmdir(f.Root(), "d"); e != errno.ENOTEMPTY {
						return errno.EIO
					}
					return errno.OK
				}},
			}
			for _, blocks := range []string{"staged", "synced"} {
				if blocks == "synced" {
					if e := f.Sync(); e != errno.OK {
						t.Fatal(e)
					}
				}
				for _, law := range laws {
					var e errno.Errno
					allocs := testing.AllocsPerRun(20, func() {
						if err := law.op(); err != errno.OK {
							e = err
						}
					})
					if e != errno.OK {
						t.Fatalf("%s (%s): %v", law.name, blocks, e)
					}
					if allocs != 0 {
						t.Errorf("%s (%s) allocates %v times, want 0", law.name, blocks, allocs)
					}
				}
				ents, _ := f.ReadDir(dir, nil)
				allocs := testing.AllocsPerRun(20, func() { ents, _ = f.ReadDir(dir, ents[:0]) })
				if len(ents) != n+3 || allocs != 0 {
					t.Errorf("ReadDir (%s) of %d entries into a warm buffer allocates %v times, want 0", blocks, len(ents), allocs)
				}
			}
		})
	}
}

func BenchmarkLookup(b *testing.B) {
	f, _, _ := benchVolume(b, false)
	dir, names := linkedDir(b, f, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := f.Lookup(dir, names[i%len(names)]); e != errno.OK {
			b.Fatal(e)
		}
	}
}

func BenchmarkReadDir(b *testing.B) {
	f, _, _ := benchVolume(b, false)
	dir, _ := linkedDir(b, f, 16)
	b.ReportAllocs()
	b.ResetTimer()
	var ents []vfs.DirEntry
	for i := 0; i < b.N; i++ {
		var e errno.Errno
		if ents, e = f.ReadDir(dir, ents[:0]); e != errno.OK {
			b.Fatal(e)
		}
	}
}

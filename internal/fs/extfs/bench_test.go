package extfs

import (
	"strings"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
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
// allocates the FS, its superblock, its two maps and Sync's write list —
// plus, on ext4, the journal and its transaction's two lists — and no
// block buffer. So does a power cut, short of Sync's lists: Drop hands
// the buffers to the cache as Unmount does, and writes nothing.
func TestRemountAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		powerCut bool
		budget   float64
	}{{"ext2", false, 5}, {"ext4", false, 8}, {"ext2-power-cut", true, 4}, {"ext4-power-cut", true, 5}} {
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
}

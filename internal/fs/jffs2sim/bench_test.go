package jffs2sim

import (
	"bytes"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
)

func BenchmarkWriteChurnWithGC(b *testing.B) {
	clk := simclock.New()
	mtd := blockdev.NewMTD("mtd0", 256*1024, 8*1024, clk)
	if err := Mkfs(mtd); err != nil {
		b.Fatal(err)
	}
	f, err := Mount(mtd, clk)
	if err != nil {
		b.Fatal(err)
	}
	ino, e := f.Create(f.Root(), "churn", 0644, 0, 0)
	if e != errno.OK {
		b.Fatal(e)
	}
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		if _, e := f.Write(ino, 0, payload); e != errno.OK {
			b.Fatal(e)
		}
	}
}

// scanVolume is the volume the mount benchmarks and the allocation budget
// scan: eight 2 KiB files, 58 nodes in two of the 32 erase blocks.
func scanVolume(tb testing.TB) (*FS, *blockdev.MTD, *simclock.Clock) {
	tb.Helper()
	return filesVolume(tb, 8)
}

// filesVolume is a volume holding n files of 2 KiB, named by the runes
// from 'a' on, each its name over and over.
func filesVolume(tb testing.TB, n int) (*FS, *blockdev.MTD, *simclock.Clock) {
	tb.Helper()
	f, mtd, clk := newVolume(tb)
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		ino, e := f.Create(f.Root(), name, 0644, 0, 0)
		if e != errno.OK {
			tb.Fatal(e)
		}
		if _, e := f.Write(ino, 0, bytes.Repeat([]byte(name), 2048)); e != errno.OK {
			tb.Fatal(e)
		}
	}
	return f, mtd, clk
}

// equalizedVolume is scanVolume plus the §3.4 equalizer's dummy: a file of
// 48 KiB of zeros, written in one write as EqualizeFreeSpace writes it.
func equalizedVolume(tb testing.TB) (*FS, *blockdev.MTD, *simclock.Clock) {
	tb.Helper()
	f, mtd, clk := scanVolume(tb)
	ino, e := f.Create(f.Root(), "dummy", 0600, 0, 0)
	if e == errno.OK {
		_, e = f.Write(ino, 0, make([]byte, 48<<10))
	}
	if e != errno.OK {
		tb.Fatal(e)
	}
	return f, mtd, clk
}

// BenchmarkMountScan times a mount of scanVolume three ways: cold (an
// empty cache: every block parsed and CRC-checked), warm (nothing changed
// since the last mount through the cache) and one-block-changed (one
// small node appended between mounts, its program included in the time —
// the per-op remount of an exploration); and a warm mount of
// equalizedVolume.
func BenchmarkMountScan(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		_, mtd, clk := scanVolume(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Mount(mtd, clk); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := func(volume func(testing.TB) (*FS, *blockdev.MTD, *simclock.Clock)) func(*testing.B) {
		return func(b *testing.B) {
			_, mtd, clk := volume(b)
			scans := NewScanCache()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MountCached(mtd, clk, scans); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("warm", warm(scanVolume))
	b.Run("equalized", warm(equalizedVolume))
	b.Run("one-block-changed", func(b *testing.B) {
		f, mtd, clk := scanVolume(b)
		scans := NewScanCache()
		ino, e := f.Lookup(f.Root(), "a")
		if e != errno.OK {
			b.Fatal(e)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, e := f.Write(ino, 0, []byte{byte(i)}); e != errno.OK {
				b.Fatal(e)
			}
			var err error
			if f, err = MountCached(mtd, clk, scans); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// remountCycle is one unchanged remount through scans: an Unmount of *f,
// which hands its inode table to the cache, and a MountCached of the same
// flash, which copies the cache's memo of the last replay into that table.
// With replay set, the memo's stamp of block 0 is moved in between, as a
// change to the block's bytes moves it, so the mount replays into the
// table and refreshes the memo instead.
func remountCycle(tb testing.TB, f **FS, mtd *blockdev.MTD, clk *simclock.Clock, scans *ScanCache, replay bool) {
	if err := (*f).Unmount(); err != nil {
		tb.Fatal(err)
	}
	if replay {
		t, ok := scans.table.Take()
		if !ok {
			tb.Fatal("an unmount left no table in the cache")
		}
		if len(t.memo.stamps) > 0 {
			t.memo.stamps[0]--
		}
		scans.table.Put(t)
	}
	g, err := MountCached(mtd, clk, scans)
	if err != nil {
		tb.Fatal(err)
	}
	*f = g
}

// BenchmarkRemount times an unmount→mount cycle of scanVolume through one
// ScanCache, the per-op remount of an exploration with nothing changed in
// between: the mount copies the memo and replays nothing.
func BenchmarkRemount(b *testing.B) {
	_, mtd, clk := scanVolume(b)
	scans := NewScanCache()
	f, err := MountCached(mtd, clk, scans)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		remountCycle(b, &f, mtd, clk, scans, false)
	}
}

// BenchmarkRemountMissThenHit times two unmount→mount cycles of
// scanVolume per iteration: one whose memo is stale, so the mount replays
// and keeps a fresh copy, and one that copies that memo back.
func BenchmarkRemountMissThenHit(b *testing.B) {
	_, mtd, clk := scanVolume(b)
	scans := NewScanCache()
	f, err := MountCached(mtd, clk, scans)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		remountCycle(b, &f, mtd, clk, scans, true)
		remountCycle(b, &f, mtd, clk, scans, false)
	}
}

// BenchmarkCreateUnlink times a create and an unlink of a file, a
// directory and a symlink on a warm mount of scanVolume through one
// ScanCache: each create takes the inode struct the unlink before it put
// on the cache's free list.
func BenchmarkCreateUnlink(b *testing.B) {
	_, mtd, clk := scanVolume(b)
	scans := NewScanCache()
	f, err := MountCached(mtd, clk, scans)
	if err != nil {
		b.Fatal(err)
	}
	remountCycle(b, &f, mtd, clk, scans, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := f.Create(f.Root(), "new", 0644, 0, 0); e != errno.OK {
			b.Fatal(e)
		}
		if e := f.Unlink(f.Root(), "new"); e != errno.OK {
			b.Fatal(e)
		}
		if _, e := f.Mkdir(f.Root(), "dir", 0755, 0, 0); e != errno.OK {
			b.Fatal(e)
		}
		if e := f.Rmdir(f.Root(), "dir"); e != errno.OK {
			b.Fatal(e)
		}
		if _, e := f.Symlink("target", f.Root(), "link", 0, 0); e != errno.OK {
			b.Fatal(e)
		}
		if e := f.Unlink(f.Root(), "link"); e != errno.OK {
			b.Fatal(e)
		}
	}
}

package jffs2sim

import (
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
	f, mtd, clk := newVolume(tb)
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		ino, e := f.Create(f.Root(), name, 0644, 0, 0)
		if e != errno.OK {
			tb.Fatal(e)
		}
		if _, e := f.Write(ino, 0, make([]byte, 2048)); e != errno.OK {
			tb.Fatal(e)
		}
	}
	return f, mtd, clk
}

// BenchmarkMountScan times a mount of scanVolume three ways: cold (an
// empty cache: every block parsed and CRC-checked), warm (nothing changed
// since the last mount through the cache) and one-block-changed (one
// small node appended between mounts, its program included in the time —
// the per-op remount of an exploration).
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
	b.Run("warm", func(b *testing.B) {
		_, mtd, clk := scanVolume(b)
		scans := NewScanCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MountCached(mtd, clk, scans); err != nil {
				b.Fatal(err)
			}
		}
	})
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

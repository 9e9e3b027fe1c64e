package vfs_test

import (
	"bytes"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// TestWriteNeitherKeepsNorChangesData is the write contract's law on
// every file system, VeriFS behind FUSE and direct: Write leaves the
// caller's buffer as it was, and what a file holds afterwards does not
// follow the buffer. Each write comes from the same buffer, scribbled
// over after every call; a file system that kept it would read back the
// scribbles, live or after a Sync.
func TestWriteNeitherKeepsNorChangesData(t *testing.T) {
	targets := readTargets()
	targets["verifs1-direct"] = func(clk *simclock.Clock) kernel.FilesystemSpec {
		return kernel.FilesystemSpec{Type: "verifs1", Mounter: func() (vfs.FS, error) { return verifs1.New(clk), nil }}
	}
	targets["verifs2-direct"] = func(clk *simclock.Clock) kernel.FilesystemSpec {
		return kernel.FilesystemSpec{Type: "verifs2", Mounter: func() (vfs.FS, error) { return verifs2.New(clk), nil }}
	}
	// One small write, one that spans blocks and flash nodes, and one
	// that overwrites part of the first two.
	writes := []struct {
		off int64
		n   int
		b   byte
	}{{0, 1, 0xAA}, {1000, 4096, 0x55}, {3000, 1500, 0x11}}
	for fsName, spec := range targets {
		t.Run(fsName, func(t *testing.T) {
			clk := simclock.New()
			k := kernel.New(clk)
			if err := k.Mount("/mnt", spec(clk), kernel.MountOptions{}); err != nil {
				t.Fatal(err)
			}
			m, _, _ := k.MountAt("/mnt")
			fs := m.FS()
			ino, e := fs.Create(fs.Root(), "f", 0o644, 0, 0)
			if e != errno.OK {
				t.Fatal(e)
			}
			buf := make([]byte, 4096)
			var want []byte
			for _, w := range writes {
				data := buf[:w.n]
				for i := range data {
					data[i] = w.b
				}
				if n, e := fs.Write(ino, w.off, data); e != errno.OK || n != w.n {
					t.Fatalf("Write(%d, %d bytes) = %d, %v", w.off, w.n, n, e)
				}
				if !bytes.Equal(data, bytes.Repeat([]byte{w.b}, w.n)) {
					t.Fatalf("Write(%d, %d bytes) changed the caller's buffer", w.off, w.n)
				}
				for i := range buf {
					buf[i] = 0xEE
				}
				if end := int(w.off) + w.n; end > len(want) {
					want = append(want, make([]byte, end-len(want))...)
				}
				copy(want[w.off:], bytes.Repeat([]byte{w.b}, w.n))
			}
			for _, when := range []string{"live", "after Sync"} {
				if when != "live" {
					if e := fs.Sync(); e != errno.OK {
						t.Fatal(e)
					}
				}
				got, e := fs.Read(ino, 0, len(want)+10, nil)
				if e != errno.OK || !bytes.Equal(got, want) {
					t.Errorf("%s: the file reads %d bytes, %v, differing from what was written at %d: it follows the buffer",
						when, len(got), e, firstDiff(got, want))
				}
			}
		})
	}
}

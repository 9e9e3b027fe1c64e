package vfs_test

import (
	"bytes"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/jffs2sim"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fs/xfssim"
	"mcfs/internal/fuse"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// readTargets mounts each of the five file systems at /mnt, VeriFS
// behind FUSE as the checker runs it.
func readTargets() map[string]func(clk *simclock.Clock) kernel.FilesystemSpec {
	veri := func(typ string, backing func(*simclock.Clock) vfs.FS) func(*simclock.Clock) kernel.FilesystemSpec {
		return func(clk *simclock.Clock) kernel.FilesystemSpec {
			srv := fuse.NewServer(backing(clk), fuse.ServerOptions{})
			return kernel.FilesystemSpec{Type: typ, Mounter: func() (vfs.FS, error) { return fuse.NewClient(srv, clk), nil }}
		}
	}
	ext := func(typ string, journal bool) func(*simclock.Clock) kernel.FilesystemSpec {
		return func(clk *simclock.Clock) kernel.FilesystemSpec {
			d := blockdev.NewRAM("ram0", 256*1024, clk)
			return kernel.FilesystemSpec{Type: typ, Dev: d, Mounter: func() (vfs.FS, error) {
				if err := extfs.Mkfs(d, extfs.MkfsOptions{Journal: journal}); err != nil {
					return nil, err
				}
				return extfs.Mount(d, clk)
			}}
		}
	}
	return map[string]func(*simclock.Clock) kernel.FilesystemSpec{
		"verifs1": veri("verifs1", func(c *simclock.Clock) vfs.FS { return verifs1.New(c) }),
		"verifs2": veri("verifs2", func(c *simclock.Clock) vfs.FS { return verifs2.New(c) }),
		"ext2":    ext("ext2", false),
		"ext4":    ext("ext4", true),
		"xfs": func(clk *simclock.Clock) kernel.FilesystemSpec {
			d := blockdev.NewRAM("ram0", xfssim.MinVolumeSize, clk)
			return kernel.FilesystemSpec{Type: "xfs", Dev: d, Mounter: func() (vfs.FS, error) {
				if err := xfssim.Mkfs(d); err != nil {
					return nil, err
				}
				return xfssim.Mount(d, clk)
			}}
		},
		"jffs2": func(clk *simclock.Clock) kernel.FilesystemSpec {
			mtd := blockdev.NewMTD("mtd0", 256*1024, 8*1024, clk)
			return kernel.FilesystemSpec{Type: "jffs2", Dev: mtd, Mounter: func() (vfs.FS, error) {
				if err := jffs2sim.Mkfs(mtd); err != nil {
					return nil, err
				}
				return jffs2sim.Mount(mtd, clk)
			}}
		},
	}
}

// holeStep is one write (data != nil) or truncate of a file.
type holeStep struct {
	off  int64
	data []byte
}

// holeFiles are files with holes: a write past EOF, a truncate that
// extends, and a shrink then extend whose old bytes must not come back.
// On jffs2 each truncate-extend leaves the tail of zeros implicit.
var holeFiles = map[string][]holeStep{
	"past-eof": {{0, []byte("hello")}, {9000, []byte("world")}, {13000, nil}},
	"all-hole": {{5000, nil}},
	"shrink-extend": {{0, bytes.Repeat([]byte("x"), 3000)}, {100, nil}, {6000, nil},
		{4500, []byte("tail")}},
}

// TestReadReturnsHolesAsZeros is the read contract's oracle on every file
// system: Read and the kernel's sequential ReadFD append a file's bytes
// to the caller's buffer, in one read or in chunks, with every hole
// written as zeros over the 0xFF the buffer's spare capacity holds.
func TestReadReturnsHolesAsZeros(t *testing.T) {
	const prefix = "pre"
	for fsName, spec := range readTargets() {
		t.Run(fsName, func(t *testing.T) {
			clk := simclock.New()
			k := kernel.New(clk)
			if err := k.Mount("/mnt", spec(clk), kernel.MountOptions{}); err != nil {
				t.Fatal(err)
			}
			m, _, _ := k.MountAt("/mnt")
			dst := spare(prefix, 16)
			if got, e := m.FS().Read(m.FS().Root(), 0, 16, dst); e != errno.EISDIR || len(got) != len(dst) {
				t.Errorf("Read of the root = %d bytes, %v; want %d, EISDIR", len(got), e, len(dst))
			}
			for name, steps := range holeFiles {
				path := "/mnt/" + name
				want := append([]byte(prefix), writeHoles(t, k, path, steps)...)
				size := len(want) - len(prefix)
				st, e := k.Stat(path)
				if e != errno.OK || st.Size != int64(size) {
					t.Fatalf("%s: stat = size %d, %v; want %d", name, st.Size, e, size)
				}
				for _, chunk := range []int{size + 10, 1000, 777} {
					got := spare(prefix, size+chunk)
					for off := int64(0); ; {
						n := len(got)
						if got, e = m.FS().Read(st.Ino, off, chunk, got); e != errno.OK {
							t.Fatalf("%s: Read(%d, %d) = %v", name, off, chunk, e)
						}
						if len(got) == n {
							break
						}
						off += int64(len(got) - n)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s: Read in %d-byte chunks differs from the prefix and the file's bytes at %d", name, chunk, firstDiff(got, want))
					}
				}
				fd, e := k.Open(path, vfs.ORdOnly, 0)
				if e != errno.OK {
					t.Fatal(e)
				}
				got := spare(prefix, size+1000)
				for {
					n := len(got)
					if got, e = k.ReadFD(fd, 1000, got); e != errno.OK {
						t.Fatalf("%s: ReadFD = %v", name, e)
					}
					if len(got) == n {
						break
					}
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: sequential ReadFD differs from the prefix and the file's bytes at %d", name, firstDiff(got, want))
				}
				if got, e = k.PReadFD(fd, 0, size+10, spare(prefix, size+10)); e != errno.OK || !bytes.Equal(got, want) {
					t.Errorf("%s: PReadFD = %v, differs from the prefix and the file's bytes at %d", name, e, firstDiff(got, want))
				}
				k.Close(fd)
			}
		})
	}
}

// spare returns prefix in a buffer with room for n more bytes, all 0xFF.
func spare(prefix string, n int) []byte {
	return append(bytes.Repeat([]byte{0xFF}, len(prefix)+n)[:0], prefix...)
}

// writeHoles applies steps to a new file at path and returns the bytes
// the file must then hold.
func writeHoles(t *testing.T, k *kernel.Kernel, path string, steps []holeStep) []byte {
	t.Helper()
	fd, e := k.Open(path, vfs.OCreate|vfs.ORdWr, 0644)
	if e != errno.OK {
		t.Fatalf("open %s: %v", path, e)
	}
	defer k.Close(fd)
	var want []byte
	for _, s := range steps {
		end := s.off + int64(len(s.data))
		if s.data == nil {
			if e := k.Truncate(path, s.off); e != errno.OK {
				t.Fatalf("truncate %s to %d: %v", path, s.off, e)
			}
			end = s.off
			want = want[:min(int64(len(want)), end)]
		} else if _, e := k.PWriteFD(fd, s.off, s.data); e != errno.OK {
			t.Fatalf("write %s at %d: %v", path, s.off, e)
		}
		want = append(want, make([]byte, max(0, end-int64(len(want))))...)
		copy(want[s.off:], s.data)
	}
	return want
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

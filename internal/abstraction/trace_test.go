package abstraction

import (
	"fmt"
	"strings"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// traceFS is a VeriFS2 that logs the calls Algorithm 1 can make into a
// file system, in order. Everything else is VeriFS2's own.
type traceFS struct {
	*verifs2.FS
	log *[]string
}

func (f traceFS) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("lookup(%d,%s)", parent, name))
	return f.FS.Lookup(parent, name)
}

func (f traceFS) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("getattr(%d)", ino))
	return f.FS.Getattr(ino)
}

func (f traceFS) Readlink(ino vfs.Ino) (string, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("readlink(%d)", ino))
	return f.FS.Readlink(ino)
}

func (f traceFS) ReadDir(ino vfs.Ino) ([]vfs.DirEntry, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("readdir(%d)", ino))
	return f.FS.ReadDir(ino)
}

func (f traceFS) Read(ino vfs.Ino, off int64, n int) ([]byte, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("read(%d,%d,%d)", ino, off, n))
	return f.FS.Read(ino, off, n)
}

func tracedKernel(t *testing.T, point string) (*kernel.Kernel, *[]string) {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	log := new([]string)
	f := traceFS{FS: verifs2.New(clk), log: log}
	if err := k.Mount(point, kernel.FilesystemSpec{
		Type:    "verifs2",
		Mounter: func() (vfs.FS, error) { return f, nil },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	return k, log
}

// renderRecords prints every field of every record, zero values elided.
func renderRecords(records []Record) []string {
	out := make([]string, len(records))
	for i, r := range records {
		s := fmt.Sprintf("%s %s %o %d:%d", r.Path, r.Kind, r.Perm, r.UID, r.GID)
		if r.Nlink != 0 {
			s += fmt.Sprintf(" nlink=%d", r.Nlink)
		}
		if r.Size != 0 {
			s += fmt.Sprintf(" size=%d", r.Size)
		}
		if r.ContentMD5 != [16]byte{} {
			s += fmt.Sprintf(" md5=%x", r.ContentMD5)
		}
		if r.Target != "" {
			s += " -> " + r.Target
		}
		out[i] = s
	}
	return out
}

// walkPin is what one Snapshot is pinned by: the rendered records, their
// digest, and the FS calls the walk made, in order.
type walkPin struct {
	records []string
	digest  string
	calls   string
}

// snapshotTrace takes one Snapshot of dir on cold kernel caches.
func snapshotTrace(t *testing.T, k *kernel.Kernel, log *[]string, dir string, opts Options) walkPin {
	t.Helper()
	for _, m := range k.Mounts() {
		inv, err := k.Invalidator(m.Point())
		if err != nil {
			t.Fatal(err)
		}
		inv.InvalAll()
	}
	*log = (*log)[:0]
	recs, e := Snapshot(k, dir, opts)
	if e != errno.OK {
		t.Fatal(e)
	}
	return walkPin{renderRecords(recs), HashRecords(recs, opts).String(), strings.Join(*log, " ")}
}

func (got walkPin) check(t *testing.T, what string, want walkPin) {
	t.Helper()
	if strings.Join(got.records, "\n") != strings.Join(want.records, "\n") {
		t.Errorf("%s: records moved; now\n%s", what, strings.Join(got.records, "\n"))
	}
	if got.digest != want.digest {
		t.Errorf("%s: digest = %s, want %s", what, got.digest, want.digest)
	}
	if got.calls != want.calls {
		t.Errorf("%s: FS calls moved; now\n%s", what, got.calls)
	}
}

// TestSnapshotCallTrace pins Algorithm 1 as the file system sees it: one
// Snapshot's records, their digest, and every call the walk makes into
// the file system, in order. The tree has nested directories, a symlink,
// a hard link, an excepted lost+found, and the names a, a.b and a/b —
// the walk visits /a/b before /a.b but "/a.b" sorts before "/a/b", so
// the sort that ends Snapshot is load-bearing.
func TestSnapshotCallTrace(t *testing.T) {
	k, log := tracedKernel(t, "/mnt")
	if e := k.Mkdir("/mnt/a", 0755); e != errno.OK { // ino 2
		t.Fatal(e)
	}
	writeFile(t, k, "/mnt/a/b", "nested")            // ino 3
	writeFile(t, k, "/mnt/a.b", "dot")               // ino 4
	if e := k.Mkdir("/mnt/d", 0700); e != errno.OK { // ino 5
		t.Fatal(e)
	}
	if e := k.Mkdir("/mnt/d/e", 0755); e != errno.OK { // ino 6
		t.Fatal(e)
	}
	writeFile(t, k, "/mnt/d/e/deep", strings.Repeat("deep", 100)) // ino 7
	if e := k.Symlink("a/b", "/mnt/s"); e != errno.OK {           // ino 8
		t.Fatal(e)
	}
	if e := k.Link("/mnt/a.b", "/mnt/d/hl"); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Mkdir("/mnt/lost+found", 0700); e != errno.OK { // ino 9
		t.Fatal(e)
	}
	writeFile(t, k, "/mnt/lost+found/junk", "ignored")
	if e := k.Chown("/mnt/a/b", 7, 8); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Mkdir("/mnt/empty", 0755); e != errno.OK { // ino 11
		t.Fatal(e)
	}

	opts := New()
	full := snapshotTrace(t, k, log, "/mnt", opts)
	full.check(t, "/mnt", walkPin{
		records: []string{
			"/ dir 755 0:0",
			"/a dir 755 0:0",
			"/a.b file 644 0:0 nlink=2 size=3 md5=69eb76c88557a8211cbfc9beda5fc062",
			"/a/b file 644 7:8 nlink=1 size=6 md5=83d3784ea62518eafc60e98d84f877ad",
			"/d dir 700 0:0",
			"/d/e dir 755 0:0",
			"/d/e/deep file 644 0:0 nlink=1 size=400 md5=70f5e8f88467c673248fdfbdf9129e32",
			"/d/hl file 644 0:0 nlink=2 size=3 md5=69eb76c88557a8211cbfc9beda5fc062",
			"/empty dir 755 0:0",
			"/s symlink 777 0:0 size=3 -> a/b",
		},
		digest: "d0077ab6d3979d9ea8808ac42075e941",
		calls: "getattr(1) readdir(1) lookup(1,a) getattr(2) readdir(2) lookup(2,b) getattr(3) read(3,0,65536) read(3,6,65536) " +
			"lookup(1,a.b) getattr(4) read(4,0,65536) read(4,3,65536) " +
			"lookup(1,d) getattr(5) readdir(5) lookup(5,e) getattr(6) readdir(6) lookup(6,deep) getattr(7) read(7,0,65536) read(7,400,65536) " +
			"lookup(5,hl) getattr(4) read(4,0,65536) read(4,3,65536) " +
			"lookup(1,empty) getattr(11) readdir(11) lookup(1,s) getattr(8) readlink(8)",
	})

	// A mount point the caller did not clean names the same tree.
	snapshotTrace(t, k, log, "//mnt/./", opts).check(t, "//mnt/./", full)

	// A directory inside the mount is walked like a mount point: paths
	// are relative to it.
	snapshotTrace(t, k, log, "/mnt/d", opts).check(t, "/mnt/d", walkPin{
		records: []string{
			"/ dir 700 0:0",
			"/e dir 755 0:0",
			"/e/deep file 644 0:0 nlink=1 size=400 md5=70f5e8f88467c673248fdfbdf9129e32",
			"/hl file 644 0:0 nlink=2 size=3 md5=69eb76c88557a8211cbfc9beda5fc062",
		},
		digest: "085e08cb9c0ec921f498d74cd21a5ee4",
		calls: "getattr(1) lookup(1,d) getattr(5) readdir(5) lookup(5,e) getattr(6) readdir(6) lookup(6,deep) getattr(7) " +
			"read(7,0,65536) read(7,400,65536) lookup(5,hl) getattr(4) read(4,0,65536) read(4,3,65536)",
	})

	// Metadata only: no file is opened or read.
	opts.IgnoreContent = true
	snapshotTrace(t, k, log, "/mnt", opts).check(t, "metadata only", walkPin{
		records: []string{
			"/ dir 755 0:0",
			"/a dir 755 0:0",
			"/a.b file 644 0:0 nlink=2 size=3",
			"/a/b file 644 7:8 nlink=1 size=6",
			"/d dir 700 0:0",
			"/d/e dir 755 0:0",
			"/d/e/deep file 644 0:0 nlink=1 size=400",
			"/d/hl file 644 0:0 nlink=2 size=3",
			"/empty dir 755 0:0",
			"/s symlink 777 0:0 size=3 -> a/b",
		},
		digest: "17a26b222e1e2d1a23a25e6df4c617e2",
		calls: "getattr(1) readdir(1) lookup(1,a) getattr(2) readdir(2) lookup(2,b) getattr(3) lookup(1,a.b) getattr(4) " +
			"lookup(1,d) getattr(5) readdir(5) lookup(5,e) getattr(6) readdir(6) lookup(6,deep) getattr(7) lookup(5,hl) " +
			"lookup(1,empty) getattr(11) readdir(11) lookup(1,s) getattr(8) readlink(8)",
	})
}

// TestSnapshotCallTraceRootMount is the same pin for a file system
// mounted at "/", where the mount point contributes no prefix.
func TestSnapshotCallTraceRootMount(t *testing.T) {
	k, log := tracedKernel(t, "/")
	if e := k.Mkdir("/d", 0755); e != errno.OK {
		t.Fatal(e)
	}
	writeFile(t, k, "/d/f", "x")
	snapshotTrace(t, k, log, "/", New()).check(t, "/", walkPin{
		records: []string{
			"/ dir 755 0:0",
			"/d dir 755 0:0",
			"/d/f file 644 0:0 nlink=1 size=1 md5=9dd4e461268c8034f5c8564e155c67a6",
		},
		digest: "9ca330b5f3beb34b843f9f93828e751b",
		calls:  "getattr(1) readdir(1) lookup(1,d) getattr(2) readdir(2) lookup(2,f) getattr(3) read(3,0,65536) read(3,1,65536)",
	})
}

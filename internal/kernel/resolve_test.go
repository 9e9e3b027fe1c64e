package kernel

import (
	"fmt"
	"strings"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// traceFS is a VeriFS2 that logs the calls name resolution can make into
// a file system, in order. Everything else is VeriFS2's own.
type traceFS struct {
	*verifs2.FS
	label string
	log   *[]string
}

func (f traceFS) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("%slookup(%d,%s)", f.label, parent, name))
	return f.FS.Lookup(parent, name)
}

func (f traceFS) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("%sgetattr(%d)", f.label, ino))
	return f.FS.Getattr(ino)
}

func (f traceFS) Readlink(ino vfs.Ino) (string, errno.Errno) {
	*f.log = append(*f.log, fmt.Sprintf("%sreadlink(%d)", f.label, ino))
	return f.FS.Readlink(ino)
}

// newTracedKernel mounts one traced VeriFS2 at /mnt and a second at
// /mnt/sub, both logging into the returned slice, and builds the tree the
// resolution table walks.
func newTracedKernel(tb testing.TB) (*Kernel, *[]string) {
	tb.Helper()
	clk := simclock.New()
	k := New(clk)
	log := new([]string)
	for _, mnt := range []struct{ point, label string }{{"/mnt", ""}, {"/mnt/sub", "sub:"}} {
		f := traceFS{FS: verifs2.New(clk), label: mnt.label, log: log}
		if err := k.Mount(mnt.point, FilesystemSpec{
			Type:    "verifs2",
			Mounter: func() (vfs.FS, error) { return f, nil },
		}, MountOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
	must := func(e errno.Errno) {
		tb.Helper()
		if e != errno.OK {
			tb.Fatal(e)
		}
	}
	touch := func(path string) {
		tb.Helper()
		fd, e := k.Open(path, vfs.OCreate|vfs.OWrOnly, 0644)
		must(e)
		must(k.Close(fd))
	}
	must(k.Mkdir("/mnt/a", 0755))     // ino 2
	must(k.Mkdir("/mnt/a/b", 0755))   // ino 3
	touch("/mnt/a/b/c")               // ino 4
	touch("/mnt/f")                   // ino 5
	must(k.Symlink("/a", "/mnt/abs")) // ino 6
	must(k.Symlink("a/b/c", "/mnt/rel"))
	must(k.Symlink("b", "/mnt/a/dl"))
	must(k.Symlink("/l2", "/mnt/l1"))
	must(k.Symlink("/l1", "/mnt/l2"))
	must(k.Symlink("./a//b/", "/mnt/junk")) // ino 11
	touch("/mnt/sub/x")                     // sub: ino 2
	return k, log
}

// TestResolveCallTrace pins what name resolution asks of the file system:
// for each path, the result of the walk and the exact sequence of
// Lookup/Getattr/Readlink calls on cold and on warm kernel caches. The
// lookups are what a checker pays for (a FUSE round trip each); how the
// kernel parses the path string around them must never show up here.
func TestResolveCallTrace(t *testing.T) {
	k, log := newTracedKernel(t)
	rows := []struct {
		path   string
		follow bool   // Stat (true) or Lstat (false)
		sys    string // the syscall's errno
		want   string // the walk's errno and resolved{ino, parent, name, exists}
		cold   string // FS calls after InvalAll on every mount
		warm   string // FS calls when the walk is repeated
		mount  string // mount point of the resolved mount
	}{
		{path: "/mnt/a/b/c", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=4 parent=3 name=c exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,b) getattr(3) lookup(3,c) getattr(4)"},
		{path: "/mnt//a///b/", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=3 parent=2 name=b exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,b) getattr(3)"},
		{path: "/mnt/./a/./b/.", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=3 parent=2 name=b exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,b) getattr(3)"},
		{path: "/mnt/a/b/../b/c", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=4 parent=3 name=c exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,b) getattr(3) lookup(3,..) lookup(3,c) getattr(4)",
			warm: "lookup(3,..)"},
		{path: "/mnt/a/b/..", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=2 parent=3 name=.. exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,b) getattr(3) lookup(3,..)",
			warm: "lookup(3,..)"},
		{path: "/mnt/a/../..", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=1 parent=1 name=.. exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,..) lookup(1,..)",
			warm: "lookup(2,..) lookup(1,..)"},
		{path: "/mnt/abs/b/c", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=4 parent=3 name=c exists=true",
			cold: "getattr(1) lookup(1,abs) getattr(6) readlink(6) lookup(1,a) getattr(2) lookup(2,b) getattr(3) lookup(3,c) getattr(4)",
			warm: "readlink(6)"},
		{path: "/mnt/abs//b/./c/", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=4 parent=3 name=c exists=true",
			cold: "getattr(1) lookup(1,abs) getattr(6) readlink(6) lookup(1,a) getattr(2) lookup(2,b) getattr(3) lookup(3,c) getattr(4)",
			warm: "readlink(6)"},
		{path: "/mnt/junk/c", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=4 parent=3 name=c exists=true",
			cold: "getattr(1) lookup(1,junk) getattr(11) readlink(11) lookup(1,a) getattr(2) lookup(2,b) getattr(3) lookup(3,c) getattr(4)",
			warm: "readlink(11)"},
		{path: "/mnt/junk", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=3 parent=2 name=b exists=true",
			cold: "getattr(1) lookup(1,junk) getattr(11) readlink(11) lookup(1,a) getattr(2) lookup(2,b) getattr(3)",
			warm: "readlink(11)"},
		{path: "/mnt/rel", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=4 parent=3 name=c exists=true",
			cold: "getattr(1) lookup(1,rel) getattr(7) readlink(7) lookup(1,a) getattr(2) lookup(2,b) getattr(3) lookup(3,c) getattr(4)",
			warm: "readlink(7)"},
		{path: "/mnt/rel", follow: false, sys: "OK", mount: "/mnt",
			want: "OK ino=7 parent=1 name=rel exists=true",
			cold: "getattr(1) lookup(1,rel) getattr(7)"},
		{path: "/mnt/rel/", follow: false, sys: "OK", mount: "/mnt",
			want: "OK ino=7 parent=1 name=rel exists=true",
			cold: "getattr(1) lookup(1,rel) getattr(7)"},
		{path: "/mnt/a/dl/c", follow: false, sys: "OK", mount: "/mnt",
			want: "OK ino=4 parent=3 name=c exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,dl) getattr(8) readlink(8) lookup(2,b) getattr(3) lookup(3,c) getattr(4)",
			warm: "readlink(8)"},
		{path: "/mnt/a/dl", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=3 parent=2 name=b exists=true",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,dl) getattr(8) readlink(8) lookup(2,b) getattr(3)",
			warm: "readlink(8)"},
		{path: "/mnt/l1", follow: true, sys: "ELOOP",
			want: "ELOOP",
			cold: "getattr(1) lookup(1,l1) getattr(9) readlink(9) lookup(1,l2) getattr(10) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9)",
			warm: "readlink(9) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9)"},
		{path: "/mnt/l1", follow: false, sys: "OK", mount: "/mnt",
			want: "OK ino=9 parent=1 name=l1 exists=true",
			cold: "getattr(1) lookup(1,l1) getattr(9)"},
		{path: "/mnt/l1/x", follow: false, sys: "ELOOP",
			want: "ELOOP",
			cold: "getattr(1) lookup(1,l1) getattr(9) readlink(9) lookup(1,l2) getattr(10) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9)",
			warm: "readlink(9) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9) readlink(10) readlink(9)"},
		{path: "/mnt/nope/x", follow: true, sys: "ENOENT",
			want: "ENOENT",
			cold: "getattr(1) lookup(1,nope)"},
		{path: "/mnt/a/nope", follow: true, sys: "ENOENT", mount: "/mnt",
			want: "OK ino=0 parent=2 name=nope exists=false",
			cold: "getattr(1) lookup(1,a) getattr(2) lookup(2,nope)"},
		{path: "/mnt/f/x", follow: true, sys: "ENOTDIR",
			want: "ENOTDIR",
			cold: "getattr(1) lookup(1,f) getattr(5)"},
		{path: "/mnt/sub/x", follow: true, sys: "OK", mount: "/mnt/sub",
			want: "OK ino=2 parent=1 name=x exists=true",
			cold: "sub:getattr(1) sub:lookup(1,x) sub:getattr(2)"},
		{path: "/mnt//sub/./x", follow: true, sys: "OK", mount: "/mnt/sub",
			want: "OK ino=2 parent=1 name=x exists=true",
			cold: "sub:getattr(1) sub:lookup(1,x) sub:getattr(2)"},
		{path: "/mnt/sub", follow: true, sys: "OK", mount: "/mnt/sub",
			want: "OK ino=1 parent=1 name= exists=true"},
		{path: "/mnt", follow: true, sys: "OK", mount: "/mnt",
			want: "OK ino=1 parent=1 name= exists=true"},
		{path: "/mntx", follow: true, sys: "ENOENT",
			want: "ENOENT"},
		{path: "/mnt/subx", follow: true, sys: "ENOENT", mount: "/mnt",
			want: "OK ino=0 parent=1 name=subx exists=false",
			cold: "getattr(1) lookup(1,subx)"},
	}
	for _, row := range rows {
		for _, m := range k.Mounts() {
			mountInvalidator{m}.InvalAll()
		}
		walk := func() (string, string, string) {
			*log = (*log)[:0]
			r, e := k.resolve(row.path, row.follow)
			got := e.String()
			point := ""
			if e == errno.OK {
				got = fmt.Sprintf("OK ino=%d parent=%d name=%s exists=%v", r.ino, r.parent, r.name, r.exists)
				point = r.mount.point
			}
			return got, point, strings.Join(*log, " ")
		}
		got, point, cold := walk()
		again, _, warm := walk()
		if again != got {
			t.Errorf("%s follow=%v: warm walk resolved %q, cold walk %q", row.path, row.follow, again, got)
		}
		before := k.SyscallCount()
		stat := k.Lstat
		if row.follow {
			stat = k.Stat
		}
		_, e := stat(row.path)
		if n := k.SyscallCount() - before; n != 1 {
			t.Errorf("%s follow=%v: stat charged %d syscalls, want 1 however many links it crossed", row.path, row.follow, n)
		}
		if got != row.want || point != row.mount || cold != row.cold || warm != row.warm || e.String() != row.sys {
			t.Errorf("resolution moved; the row now reads\n{path: %q, follow: %v, sys: %q, mount: %q,\n\twant: %q,\n\tcold: %q,\n\twarm: %q},",
				row.path, row.follow, e.String(), point, got, cold, warm)
		}
	}
}

// newResolveTree mounts a plain VeriFS2 at /mnt holding /a/b/c and an
// absolute symlink /abs -> /a.
func newResolveTree(tb testing.TB) *Kernel {
	tb.Helper()
	k, _ := newKernelWithVeriFS2(tb)
	for _, e := range []errno.Errno{
		k.Mkdir("/mnt/a", 0755),
		k.Mkdir("/mnt/a/b", 0755),
		k.Mkdir("/mnt/a/b/c", 0755),
		k.Symlink("/a", "/mnt/abs"),
	} {
		if e != errno.OK {
			tb.Fatal(e)
		}
	}
	return k
}

// TestResolveAllocatesNothing is the budget that keeps path parsing out
// of name resolution: on warm caches a clean path is walked in place.
func TestResolveAllocatesNothing(t *testing.T) {
	k := newResolveTree(t)
	const path = "/mnt/a/b/c"
	calls := map[string]func(){
		"Stat":    func() { k.Stat(path) },
		"Lstat":   func() { k.Lstat(path) },
		"Access":  func() { k.Access(path) },
		"MountAt": func() { k.MountAt(path) },
	}
	for name, call := range calls {
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("%s(%q) allocates %v times per call on warm caches, want 0", name, path, n)
		}
	}
}

// BenchmarkResolve times one stat(2) of a three-component path: on warm
// caches, on caches a restore just invalidated, and through a symlink.
func BenchmarkResolve(b *testing.B) {
	k := newResolveTree(b)
	inv, err := k.Invalidator("/mnt")
	if err != nil {
		b.Fatal(err)
	}
	stat := func(b *testing.B, path string, cold bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cold {
				inv.InvalAll()
			}
			if _, e := k.Stat(path); e != errno.OK {
				b.Fatal(e)
			}
		}
	}
	b.Run("warm", func(b *testing.B) { stat(b, "/mnt/a/b/c", false) })
	b.Run("cold", func(b *testing.B) { stat(b, "/mnt/a/b/c", true) })
	b.Run("symlink", func(b *testing.B) { stat(b, "/mnt/abs/b/c", false) })
}

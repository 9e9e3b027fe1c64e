package abstraction

import (
	"fmt"
	"strings"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/jffs2sim"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fuse"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// walkedKinds are the file systems an engine walks after every op.
var walkedKinds = []string{"verifs1", "verifs2", "ext2", "ext4", "jffs2"}

// kernelWith mounts a fresh file system of kind at point, the way an
// engine's targets are mounted: verifs1 and verifs2 behind FUSE, ext2 and
// ext4 on a RAM disk through a MountCache, jffs2 on a flash through a
// ScanCache.
func kernelWith(tb testing.TB, kind, point string) *kernel.Kernel {
	tb.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	var spec kernel.FilesystemSpec
	switch kind {
	case "verifs1", "verifs2":
		var backing vfs.FS = verifs2.New(clk)
		if kind == "verifs1" {
			backing = verifs1.New(clk)
		}
		client := fuse.NewClient(fuse.NewServer(backing, fuse.ServerOptions{}), clk)
		spec = kernel.FilesystemSpec{Type: kind, Mounter: func() (vfs.FS, error) { return client, nil }}
	case "ext2", "ext4":
		dev := blockdev.NewRAM(kind, 2<<20, clk)
		if err := extfs.Mkfs(dev, extfs.MkfsOptions{Journal: kind == "ext4"}); err != nil {
			tb.Fatal(err)
		}
		opts := extfs.MountOpts{Cache: extfs.NewMountCache()}
		spec = kernel.FilesystemSpec{Type: kind, Dev: dev,
			Mounter:   func() (vfs.FS, error) { return extfs.MountWith(dev, clk, opts) },
			Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() }}
	case "jffs2":
		mtd := blockdev.NewMTD("mtd0", 2<<20, 8<<10, clk)
		if err := jffs2sim.Mkfs(mtd); err != nil {
			tb.Fatal(err)
		}
		scans := jffs2sim.NewScanCache()
		spec = kernel.FilesystemSpec{Type: kind, Dev: mtd,
			Mounter:   func() (vfs.FS, error) { return jffs2sim.MountCached(mtd, clk, scans) },
			Unmounter: func(f vfs.FS) error { return f.(*jffs2sim.FS).Unmount() }}
	default:
		tb.Fatalf("no file system %q", kind)
	}
	if err := k.Mount(point, spec, kernel.MountOptions{}); err != nil {
		tb.Fatal(err)
	}
	return k
}

// populate makes dirs directories under point, each holding a small file
// and four hard links to it: 1 + 6·dirs records with the root, in few
// enough inodes for extfs's 64. VeriFS1, which has no hard links, gets
// four more files instead.
func populate(tb testing.TB, k *kernel.Kernel, point string, dirs int) {
	tb.Helper()
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("%s/d%02d", point, d)
		if e := k.Mkdir(dir, 0755); e != errno.OK {
			tb.Fatal(e)
		}
		content := strings.Repeat(fmt.Sprintf("%d ", d), 8)
		writeFile(tb, k, dir+"/f0", content)
		for i := 1; i < 5; i++ {
			name := fmt.Sprintf("%s/f%d", dir, i)
			switch e := k.Link(dir+"/f0", name); e {
			case errno.OK:
			case errno.ENOSYS:
				writeFile(tb, k, name, content)
			default:
				tb.Fatal(e)
			}
		}
	}
}

// TestAllocationBudgets: a warm walk — through a memo that has seen the
// tree, into the record buffer the last walk grew — and the hash of its
// records allocate nothing, at 19 records and at 151, on every file
// system an engine walks. The names stack, the listing buffer, the
// interned paths, the read buffer and the records all stay with their
// owner; so do the file systems' listings (vfs.FS.ReadDir appends) and
// extfs's names (its name table). A walk in fresh memory, the
// package-level Hash, keeps a budget; comparing equal states, which the
// checker does after nearly every operation, allocates nothing.
func TestAllocationBudgets(t *testing.T) {
	opts := New()
	for _, kind := range walkedKinds {
		for _, dirs := range []int{3, 25} {
			k := kernelWith(t, kind, "/mnt")
			populate(t, k, "/mnt", dirs)
			m := NewMemo()
			recs, e := m.Snapshot(nil, k, "/mnt", opts)
			if e != errno.OK || len(recs) != 1+6*dirs {
				t.Fatalf("%s: %d records (%v), want %d", kind, len(recs), e, 1+6*dirs)
			}
			if n := testing.AllocsPerRun(20, func() {
				recs, _ = m.Snapshot(recs[:0], k, "/mnt", opts)
				HashRecords(recs, opts)
			}); n != 0 {
				t.Errorf("%s: a warm walk and hash of %d records allocates %v times, want 0", kind, len(recs), n)
			}
		}
	}
	k := hashBenchTree(t)
	// 34 today: one path per node, the walk's memory as it grows, and a
	// handful per walk (31 while each directory made its names and its
	// listing exactly sized; 358 before the walk stopped re-parsing its
	// own paths). One more allocation per node would be 53.
	if n := testing.AllocsPerRun(20, func() { Hash(k, "/mnt", opts) }); n > 50 {
		t.Errorf("Hash of the 19-record tree allocates %v times, budget 50", n)
	}
	a, b := diffBenchRecords(), diffBenchRecords()
	if n := testing.AllocsPerRun(20, func() { Diff(a, b, opts) }); n != 0 {
		t.Errorf("Diff of two equal 100-record lists allocates %v times, want 0", n)
	}
}

// TestReadDirIntoWarmBufferAllocatesNothing: a listing appended to the
// buffer an earlier listing grew allocates nothing, in a directory of 6
// files and in one of 48, on each file system whose listings the walk
// reads after every op (xfssim, which no workload walks, parses its
// directory stream into fresh memory). getdents passes the buffer
// through.
func TestReadDirIntoWarmBufferAllocatesNothing(t *testing.T) {
	for _, kind := range []string{"verifs1", "verifs2", "ext2", "jffs2"} {
		for _, n := range []int{6, 48} {
			k := kernelWith(t, kind, "/mnt")
			if e := k.Mkdir("/mnt/d", 0755); e != errno.OK {
				t.Fatal(e)
			}
			for i := 0; i < n; i++ {
				writeFile(t, k, fmt.Sprintf("/mnt/d/entry-%02d-%s", i, strings.Repeat("x", 20)), "")
			}
			ents, e := k.GetDents("/mnt/d", nil)
			if e != errno.OK || len(ents) != n+2 {
				t.Fatalf("%s: %d entries (%v), want %d", kind, len(ents), e, n+2)
			}
			if allocs := testing.AllocsPerRun(20, func() { ents, _ = k.GetDents("/mnt/d", ents[:0]) }); allocs != 0 {
				t.Errorf("%s: a listing of %d entries into a warm buffer allocates %v times, want 0", kind, n+2, allocs)
			}
			listed := 0
			for _, de := range ents {
				if strings.HasPrefix(de.Name, "entry-") {
					listed++
				}
			}
			if len(ents) != n+2 || listed != n {
				t.Errorf("%s: the warm listing holds %d entries, %d of them files, want %d and %d", kind, len(ents), listed, n+2, n)
			}
		}
	}
}

// TestReusedWalkIsExact: one memo walking into one record buffer records,
// after every change of a seeded sequence, exactly what a walk in fresh
// memory records, field for field; and it leaves its names stack empty.
// The sequence shrinks the tree, renames a non-empty directory, holds
// the names a, a.b and a/b (which path order and visit order put
// differently), fills lost+found, makes a symlink and a hard link,
// removes a name and adds it again, and remounts extfs.
func TestReusedWalkIsExact(t *testing.T) {
	for _, kind := range []string{"ext2", "verifs2", "jffs2"} {
		t.Run(kind, func(t *testing.T) {
			k := kernelWith(t, kind, "/mnt")
			if kind != "ext2" { // extfs's mkfs makes its own
				if e := k.Mkdir("/mnt/lost+found", 0700); e != errno.OK {
					t.Fatal(e)
				}
			}
			opts := New()
			m := NewMemo()
			var recs []Record
			step := 0
			check := func(what string) {
				t.Helper()
				step++
				fresh, e := Snapshot(k, "/mnt", opts)
				if e != errno.OK {
					t.Fatalf("step %d (%s): %v", step, what, e)
				}
				if recs, e = m.Snapshot(recs[:0], k, "/mnt", opts); e != errno.OK {
					t.Fatalf("step %d (%s): reused walk: %v", step, what, e)
				}
				if len(m.names) != 0 {
					t.Fatalf("step %d (%s): the walk left %d names on its stack", step, what, len(m.names))
				}
				if strings.Join(renderRecords(recs), "\n") != strings.Join(renderRecords(fresh), "\n") || len(recs) != len(fresh) {
					t.Fatalf("step %d (%s): the reused walk records\n%s\na fresh walk\n%s", step, what,
						strings.Join(renderRecords(recs), "\n"), strings.Join(renderRecords(fresh), "\n"))
				}
				for i := range fresh {
					if recs[i] != fresh[i] {
						t.Fatalf("step %d (%s): record %d is %+v, fresh %+v", step, what, i, recs[i], fresh[i])
					}
				}
			}
			must := func(e errno.Errno) {
				t.Helper()
				if e != errno.OK {
					t.Fatal(e)
				}
			}
			check("empty")
			must(k.Mkdir("/mnt/a", 0755))
			writeFile(t, k, "/mnt/a/b", "nested")
			writeFile(t, k, "/mnt/a.b", "dot")
			must(k.Mkdir("/mnt/d", 0700))
			must(k.Mkdir("/mnt/d/e", 0755))
			writeFile(t, k, "/mnt/d/e/b", "deep")
			writeFile(t, k, "/mnt/lost+found/junk", "ignored")
			must(k.Symlink("a/b", "/mnt/s"))
			must(k.Link("/mnt/a.b", "/mnt/d/hl"))
			check("a, a.b, a/b, lost+found, a symlink and a hard link")
			must(k.Rename("/mnt/d", "/mnt/r"))
			check("a non-empty directory renamed")
			must(k.Unlink("/mnt/a/b"))
			check("a name removed")
			must(k.Mkdir("/mnt/a/b", 0750))
			check("the name added again, as a directory")
			must(k.Unlink("/mnt/s"))
			writeFile(t, k, "/mnt/s", "no longer a link")
			check("a symlink replaced by a file")
			for _, p := range []string{"/mnt/r/e/b", "/mnt/r/hl", "/mnt/a.b"} {
				must(k.Unlink(p))
			}
			must(k.Rmdir("/mnt/r/e"))
			check("the tree shrunk")
			if kind == "ext2" {
				if err := k.Remount("/mnt"); err != nil {
					t.Fatal(err)
				}
				check("remounted")
			}
			// A seeded sequence over a few names in a few directories: each
			// name appears under several parents, so a path that lost its
			// parent would collide.
			dirs := []string{"/mnt", "/mnt/a", "/mnt/a/b", "/mnt/r", "/mnt/lost+found"}
			names := []string{"a", "a.b", "b", "x"}
			rng := uint64(0x5eed)
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < 300; i++ {
				p := dirs[next(len(dirs))] + "/" + names[next(len(names))]
				q := dirs[next(len(dirs))] + "/" + names[next(len(names))]
				switch next(8) {
				case 0:
					k.Mkdir(p, 0755)
				case 1:
					fd, e := k.Open(p, vfs.OCreate|vfs.OWrOnly|vfs.OTrunc, 0644)
					if e == errno.OK {
						k.WriteFD(fd, []byte(strings.Repeat(q, next(4))))
						k.Close(fd)
					}
				case 2:
					k.Unlink(p)
				case 3:
					k.Rmdir(p)
				case 4:
					k.Rename(p, q)
				case 5:
					k.Symlink(q, p)
				case 6:
					k.Link(p, q)
				case 7:
					if kind == "ext2" && next(4) == 0 {
						if err := k.Remount("/mnt"); err != nil {
							t.Fatal(err)
						}
					} else {
						k.Chmod(p, vfs.Mode(0700|next(0100)))
					}
				}
				check(fmt.Sprintf("seeded op %d", i))
			}
		})
	}
}

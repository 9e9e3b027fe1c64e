package tracker

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/checker"
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
	"mcfs/internal/workload"
)

// The law every tracker owes the explorer: Restore(Checkpoint(s)) = s.
// For the trackers the engine actually runs — the checkpoint API over
// both VeriFS versions behind FUSE, remount over every device-backed
// file system — s is the whole concrete state (the medium's bytes, or
// VeriFS's inodes one by one) and the abstract hash the visited table
// keys on. Checkpoints nest as engine.dfs nests them.

// lawTarget is one tracker × file system under the law.
type lawTarget struct {
	k   *kernel.Kernel
	tr  Tracker
	chk *checker.Checker
	// media is the backing medium of a device-backed target, backing the
	// VeriFS instance behind the FUSE server; exactly one is set.
	media   blockdev.Media
	backing vfs.FS
}

const lawMount = "/mnt"

func lawTargets() map[string]func(t testing.TB) *lawTarget {
	dev := func(mkfs func(*blockdev.Disk) error, typ string, size int64, mount func(*blockdev.Disk, *simclock.Clock) (vfs.FS, error), unmount func(vfs.FS) error) func(testing.TB) *lawTarget {
		return func(t testing.TB) *lawTarget {
			clk := simclock.New()
			k := kernel.New(clk)
			d := blockdev.NewRAM("ram0", size, clk)
			if err := mkfs(d); err != nil {
				t.Fatal(err)
			}
			spec := kernel.FilesystemSpec{
				Type:      typ,
				Dev:       d,
				Mounter:   func() (vfs.FS, error) { return mount(d, clk) },
				Unmounter: unmount,
			}
			if err := k.Mount(lawMount, spec, kernel.MountOptions{}); err != nil {
				t.Fatal(err)
			}
			return &lawTarget{k: k, tr: NewRemount(k, lawMount, true), media: d}
		}
	}
	ext := func(journal bool, typ string) func(testing.TB) *lawTarget {
		return dev(
			func(d *blockdev.Disk) error { return extfs.Mkfs(d, extfs.MkfsOptions{Journal: journal}) },
			typ, 256*1024,
			func(d *blockdev.Disk, clk *simclock.Clock) (vfs.FS, error) { return extfs.Mount(d, clk) },
			func(f vfs.FS) error { return f.(*extfs.FS).Unmount() })
	}
	veri := func(typ string, mk func(*simclock.Clock) vfs.FS) func(testing.TB) *lawTarget {
		return func(t testing.TB) *lawTarget {
			clk := simclock.New()
			k := kernel.New(clk)
			backing := mk(clk)
			srv := fuse.NewServer(backing, fuse.ServerOptions{})
			if err := k.Mount(lawMount, kernel.FilesystemSpec{
				Type:    typ,
				Mounter: func() (vfs.FS, error) { return fuse.NewClient(srv, clk), nil },
			}, kernel.MountOptions{}); err != nil {
				t.Fatal(err)
			}
			return &lawTarget{k: k, tr: NewCheckpoint(k, lawMount), backing: backing}
		}
	}
	return map[string]func(t testing.TB) *lawTarget{
		"checkpoint-api/verifs1": veri("verifs1", func(c *simclock.Clock) vfs.FS { return verifs1.New(c) }),
		"checkpoint-api/verifs2": veri("verifs2", func(c *simclock.Clock) vfs.FS { return verifs2.New(c) }),
		"remount/ext2":           ext(false, "ext2"),
		"remount/ext4":           ext(true, "ext4"),
		"remount/xfs": dev(
			func(d *blockdev.Disk) error { return xfssim.Mkfs(d) },
			"xfs", xfssim.MinVolumeSize,
			func(d *blockdev.Disk, clk *simclock.Clock) (vfs.FS, error) { return xfssim.Mount(d, clk) },
			func(f vfs.FS) error { return f.(*xfssim.FS).Unmount() }),
		"remount/jffs2": func(t testing.TB) *lawTarget {
			clk := simclock.New()
			k := kernel.New(clk)
			mtd := blockdev.NewMTD("mtd0", 256*1024, 8*1024, clk)
			if err := jffs2sim.Mkfs(mtd); err != nil {
				t.Fatal(err)
			}
			if err := k.Mount(lawMount, kernel.FilesystemSpec{
				Type:      "jffs2",
				Dev:       mtd,
				Mounter:   func() (vfs.FS, error) { return jffs2sim.Mount(mtd, clk) },
				Unmounter: func(f vfs.FS) error { return f.(*jffs2sim.FS).Unmount() },
			}, kernel.MountOptions{}); err != nil {
				t.Fatal(err)
			}
			return &lawTarget{k: k, tr: NewRemount(k, lawMount, true), media: mtd}
		},
	}
}

// lawState is everything the law says a restore must bring back.
type lawState struct {
	image []byte // the medium's bytes (device-backed targets)
	dump  string // every inode's attributes and content (VeriFS)
	hash  abstraction.State
}

// concrete reads the target's whole concrete state without changing it:
// the medium's bytes, or — straight from the VeriFS instance behind the
// FUSE server, attributes before the content read that moves atime —
// every inode.
func (lt *lawTarget) concrete(t *testing.T, s *lawState) {
	t.Helper()
	if lt.backing != nil {
		s.dump = dumpFS(t, lt.backing)
		return
	}
	s.image = make([]byte, lt.media.Size())
	if err := lt.media.ReadAt(s.image, 0); err != nil {
		t.Fatalf("reading the medium: %v", err)
	}
}

func (lt *lawTarget) hash(t *testing.T) abstraction.State {
	t.Helper()
	h, e := lt.chk.StateHash()
	if e != errno.OK {
		t.Fatalf("StateHash: %v", e)
	}
	return h
}

// settle is the state a checkpoint taken now will capture. Hashing reads
// files and directories, which moves their atimes, so it goes first; the
// state is then settled — synced to the medium, or (VeriFS, where the
// direct dump also moves atimes, but to a clock that stands still) dumped
// once for the side effect — and read.
func (lt *lawTarget) settle(t *testing.T) lawState {
	t.Helper()
	s := lawState{hash: lt.hash(t)}
	if lt.backing != nil {
		dumpFS(t, lt.backing)
	} else if e := lt.k.SyncFS(lawMount); e != errno.OK {
		t.Fatalf("SyncFS: %v", e)
	}
	lt.concrete(t, &s)
	return s
}

// expect compares the current state with want: the concrete state first,
// before hashing moves an atime.
func (lt *lawTarget) expect(t *testing.T, when string, want lawState) {
	t.Helper()
	var got lawState
	lt.concrete(t, &got)
	got.hash = lt.hash(t)
	if got.hash != want.hash {
		t.Errorf("%s: abstract state %x, want %x", when, got.hash, want.hash)
	}
	if got.dump != want.dump {
		t.Errorf("%s: inode state differs:\n got  %s\n want %s", when, got.dump, want.dump)
	}
	if !bytes.Equal(got.image, want.image) {
		n := 0
		for i := range got.image {
			if got.image[i] != want.image[i] {
				n++
			}
		}
		t.Errorf("%s: media image differs in %d bytes", when, n)
	}
}

// dumpFS renders every inode reachable from the root — attributes read
// before the content read that moves atime, each inode once — plus the
// allocation counters.
func dumpFS(t *testing.T, f vfs.FS) string {
	t.Helper()
	var b strings.Builder
	seen := map[vfs.Ino]bool{}
	var walk func(ino vfs.Ino, path string)
	walk = func(ino vfs.Ino, path string) {
		if seen[ino] {
			fmt.Fprintf(&b, "%s -> ino %d\n", path, ino)
			return
		}
		seen[ino] = true
		st, e := f.Getattr(ino)
		if e != errno.OK {
			t.Fatalf("Getattr(%s): %v", path, e)
		}
		fmt.Fprintf(&b, "%s %+v", path, st)
		if x, ok := f.(vfs.XattrFS); ok {
			names, _ := x.ListXattr(ino)
			for _, n := range names {
				v, _ := x.GetXattr(ino, n)
				fmt.Fprintf(&b, " %s=%x", n, v)
			}
		}
		switch {
		case st.Mode.IsDir():
			ents, e := f.ReadDir(ino, nil)
			if e != errno.OK {
				t.Fatalf("ReadDir(%s): %v", path, e)
			}
			b.WriteByte('\n')
			for _, de := range ents {
				if de.Name != "." && de.Name != ".." {
					walk(de.Ino, path+"/"+de.Name)
				}
			}
		case st.Mode.IsSymlink():
			target, _ := f.(vfs.SymlinkFS).Readlink(ino)
			fmt.Fprintf(&b, " -> %s\n", target)
		default:
			data, e := f.Read(ino, 0, int(st.Size), nil)
			if e != errno.OK {
				t.Fatalf("Read(%s): %v", path, e)
			}
			fmt.Fprintf(&b, " %x\n", data)
		}
	}
	walk(f.Root(), "")
	sf, _ := f.StatFS()
	fmt.Fprintf(&b, "statfs %+v\n", sf)
	return b.String()
}

// lawOps is a seeded walk over the default pool: run(n) executes the next
// n operations the way engine.step does, inside the tracker's brackets.
type lawOps struct {
	lt   *lawTarget
	pool []workload.Op
	rng  uint64
}

func (o *lawOps) run(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		o.rng += 0x9E3779B97F4A7C15
		z := o.rng
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		op := o.pool[(z^z>>31)%uint64(len(o.pool))]
		if err := o.lt.tr.PreOp(); err != nil {
			t.Fatalf("PreOp: %v", err)
		}
		workload.Execute(o.lt.k, lawMount, op) // failing ops are part of the walk
		if err := o.lt.tr.PostOp(); err != nil {
			t.Fatalf("PostOp: %v", err)
		}
	}
}

func TestRestoreOfCheckpointIsIdentity(t *testing.T) {
	for name, build := range lawTargets() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				lt := build(t)
				lt.chk = checker.New(lt.k, []checker.Target{{Name: name, MountPoint: lawMount}})
				ops := &lawOps{lt: lt, pool: workload.DefaultPool().Enumerate(), rng: seed}
				tr := lt.tr
				checkpoint := func(key uint64) lawState {
					t.Helper()
					ops.run(t, 6)
					s := lt.settle(t)
					if err := tr.Checkpoint(key); err != nil {
						t.Fatalf("Checkpoint(%d): %v", key, err)
					}
					return s
				}
				restore := func(key uint64, want lawState) {
					t.Helper()
					ops.run(t, 6)
					if err := tr.Restore(key); err != nil {
						t.Fatalf("Restore(%d): %v", key, err)
					}
					lt.expect(t, fmt.Sprintf("after Restore(%d)", key), want)
				}

				// Nested three deep, ops between the levels and before every
				// restore; a restored key may be checkpointed again.
				s1 := checkpoint(1)
				s2 := checkpoint(2)
				s3 := checkpoint(3)
				restore(3, s3)
				s3 = checkpoint(3)
				restore(3, s3)
				restore(2, s2)
				checkpoint(2)

				// An unknown key restores nothing and says so.
				ops.run(t, 6)
				now := lt.settle(t)
				if err := tr.Restore(99); err == nil {
					t.Error("Restore of an unknown key succeeded")
				}
				if err := tr.Restore(3); err == nil {
					t.Error("Restore of a consumed key succeeded")
				}
				lt.expect(t, "after refused restores", now)

				// Discarding the inner key leaves the outer one restorable.
				tr.Discard(2)
				if err := tr.Restore(2); err == nil {
					t.Error("Restore of a discarded key succeeded")
				}
				restore(1, s1)

				// Discarding the outermost key leaves the inner one restorable.
				checkpoint(4)
				s5 := checkpoint(5)
				tr.Discard(4)
				restore(5, s5)
				if err := tr.Restore(4); err == nil {
					t.Error("Restore of the discarded outermost key succeeded")
				}
			})
		}
	}
}

package extfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
	"mcfs/internal/workload"
)

// A power cut through the kernel hands a mount's buffers back.
var _ kernel.Dropper = (*FS)(nil)

// recDisk is a RAM disk that logs every WriteAt it is asked for: offset
// and bytes, copied as they stood at the call.
type recDisk struct {
	*blockdev.Disk
	writes []diskWrite
}

type diskWrite struct {
	off  int64
	data []byte
}

func (d *recDisk) WriteAt(p []byte, off int64) error {
	d.writes = append(d.writes, diskWrite{off, bytes.Clone(p)})
	return d.Disk.WriteAt(p, off)
}

// diskRig is one extfs volume under a kernel, a fault plane and a clock
// of its own, mounted at /mnt through one mount path that every mount of
// the rig takes — the way every mount of a session goes through the
// session's mount closure.
type diskRig struct {
	t     *testing.T
	clk   *simclock.Clock
	dev   *recDisk
	inj   *fault.Injector
	k     *kernel.Kernel
	spec  kernel.FilesystemSpec
	fs    *FS    // the file system the last mount built
	disk  []byte // the bytes that mount started from
	mount int    // mounts so far
}

// newDiskRig formats a volume and mounts it through a MountCache. Unless
// reuse is set, the cache forgets before every mount the buffers the last
// unmount or power cut handed it: it still charges a warm mount, and every mount
// allocates its own.
func newDiskRig(t *testing.T, journal, reuse bool) *diskRig {
	t.Helper()
	clk := simclock.New()
	g := &diskRig{t: t, clk: clk, dev: &recDisk{Disk: blockdev.NewRAM("ram0", 256*1024, clk)},
		inj: fault.New(), k: kernel.New(clk)}
	if err := Mkfs(g.dev, MkfsOptions{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	g.dev.SetInjector(g.inj)
	cache := NewMountCache()
	g.spec = kernel.FilesystemSpec{
		Type: "ext",
		Dev:  g.dev,
		Mounter: func() (vfs.FS, error) {
			if !reuse {
				cache.bufs = nil
			}
			// A journal replay rewrites the disk: the mount is a function
			// of the bytes it started from.
			disk, err := g.dev.Snapshot()
			if err != nil {
				return nil, err
			}
			f, err := MountWith(g.dev, clk, MountOpts{Cache: cache})
			if err == nil {
				g.fs, g.disk = f, disk
				g.mount++
			}
			return f, err
		},
		Unmounter: func(f vfs.FS) error { return f.(*FS).Unmount() },
	}
	if err := g.k.Mount("/mnt", g.spec, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	return g
}

// dump renders everything a mount shows: every inode reachable from the
// root — attributes, then content, symlink target or entries — once,
// breadth-first in directory order, and StatFS. An inode's attributes
// are read before anything reads the inode (a read moves its atime).
func dump(f *FS) string {
	var b strings.Builder
	seen := map[vfs.Ino]bool{}
	queue := []vfs.Ino{f.Root()}
	for len(queue) > 0 {
		ino := queue[0]
		queue = queue[1:]
		if seen[ino] {
			continue
		}
		seen[ino] = true
		st, e := f.Getattr(ino)
		fmt.Fprintf(&b, "inode %d %+v %v\n", ino, st, e)
		switch {
		case st.Mode.IsDir():
			ents, e := f.ReadDir(ino, nil)
			fmt.Fprintf(&b, "  entries %v\n", e)
			for _, de := range ents {
				fmt.Fprintf(&b, "  %q -> %d %v\n", de.Name, de.Ino, de.Mode)
				if de.Name != "." && de.Name != ".." {
					queue = append(queue, de.Ino)
				}
			}
		case st.Mode.IsSymlink():
			target, e := f.Readlink(ino)
			fmt.Fprintf(&b, "  target %q %v\n", target, e)
		case st.Mode.IsRegular():
			data, e := f.Read(ino, 0, int(st.Size), nil)
			fmt.Fprintf(&b, "  content %x %v\n", data, e)
		}
	}
	sfs, e := f.StatFS()
	fmt.Fprintf(&b, "statfs %+v %v\n", sfs, e)
	return b.String()
}

// check dumps the mount the rig holds and a mount of a fresh device
// loaded with a copy of the bytes that mount started from, and returns
// both.
func (g *diskRig) check(when string) (got, want string) {
	g.t.Helper()
	fresh := blockdev.NewRAM("ref", int64(len(g.disk)), nil)
	if err := fresh.LoadImage(g.disk); err != nil {
		g.t.Fatal(err)
	}
	ref, err := Mount(fresh, nil)
	if err != nil {
		g.t.Fatalf("%s: mounting the copy: %v", when, err)
	}
	return dump(g.fs), dump(ref)
}

// twinRigs drives two rigs in lockstep: one whose mounts reuse buffers
// through a long-lived MountCache, a twin whose mounts never do.
type twinRigs struct {
	t      *testing.T
	r      *rand.Rand
	pool   []workload.Op
	cached *diskRig
	twin   *diskRig
	checks int
}

// both runs do on each rig, the cached one first.
func (w *twinRigs) both(do func(g *diskRig) error) {
	w.t.Helper()
	for _, g := range []*diskRig{w.cached, w.twin} {
		if err := do(g); err != nil {
			w.t.Fatal(err)
		}
	}
}

// check holds the cached rig's mount against a cache-less mount of a copy
// of its bytes, the twin's mount against the cached rig's, and the two
// rigs' WriteAt sequences since the last check against each other.
func (w *twinRigs) check(when string) {
	w.t.Helper()
	got, want := w.cached.check(when)
	if got != want {
		w.t.Fatalf("%s: the cached mount shows\n%s\na mount of a copy of the disk shows\n%s", when, firstDiff(got, want), firstDiff(want, got))
	}
	twin, _ := w.twin.check(when)
	if twin != got {
		w.t.Fatalf("%s: the twin shows\n%s\nthe cached rig shows\n%s", when, firstDiff(twin, got), firstDiff(got, twin))
	}
	a, b := w.cached.dev.writes, w.twin.dev.writes
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i].off != b[i].off || !bytes.Equal(a[i].data, b[i].data) {
			w.t.Fatalf("%s: write %d of %d differs from the twin's (of %d)", when, i, len(a), len(b))
		}
	}
	w.cached.dev.writes, w.twin.dev.writes = nil, nil
	w.checks++
}

// firstDiff is the line of a where it first differs from b.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i, l := range al {
		if i >= len(bl) || l != bl[i] {
			return fmt.Sprintf("line %d: %s", i+1, l)
		}
	}
	return "(a prefix)"
}

// ops runs n seeded DefaultPool operations, each followed by a remount
// and a check.
func (w *twinRigs) ops(when string, n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		op := w.pool[w.r.Intn(len(w.pool))]
		w.both(func(g *diskRig) error {
			workload.Execute(g.k, "/mnt", op) // errnos are part of the walk
			return g.k.Remount("/mnt")
		})
		w.check(fmt.Sprintf("%s, op %d %v", when, i, op))
	}
}

// rewind is the remount tracker's restore: unmount, rewind, mount.
func (w *twinRigs) rewind(key uint64) {
	w.t.Helper()
	w.both(func(g *diskRig) error {
		if err := g.k.Unmount("/mnt"); err != nil {
			return err
		}
		if err := g.dev.RewindFrame(key); err != nil {
			return err
		}
		return g.k.Mount("/mnt", g.spec, kernel.MountOptions{})
	})
	w.check(fmt.Sprintf("after rewinding frame %d", key))
}

// openFrame is the remount tracker's checkpoint: sync, then a frame.
func (w *twinRigs) openFrame(key uint64) {
	w.t.Helper()
	w.both(func(g *diskRig) error {
		if e := g.k.SyncFS("/mnt"); e != errno.OK {
			return e
		}
		return g.dev.OpenFrame(key)
	})
}

// TestMountIsAFunctionOfTheDisk is the ext twin of jffs2sim's
// TestMountIsAFunctionOfTheFlash: whatever a MountCache carries from one
// mount to the next, the mounted state is a function of the disk's
// bytes. Seeded walks over DefaultPool operations, a remount after each,
// drive one volume through checkpoint frames opened three deep and
// rewound, the crash probe's RevertFrame + Patch over a touch log with a
// power-cut remount per crash point, blocks staged and freed inside one
// mount that a remount syncs or a power cut drops, power cuts over
// unsynced ops, and a raw image load; after every
// step the mount built through the one long-lived cache dumps equal to a
// cache-less mount of a fresh device holding a copy of the bytes. A twin
// volume driven the same way, whose mounts never reuse a buffer, receives
// the same WriteAt sequence, offset and bytes: a buffer written after it
// was handed on to the next mount would show there.
func TestMountIsAFunctionOfTheDisk(t *testing.T) {
	pool := workload.DefaultPool().Enumerate()
	for _, kind := range []string{"ext2", "ext4"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				journal := kind == "ext4"
				w := &twinRigs{t: t, r: rand.New(rand.NewSource(seed)), pool: pool,
					cached: newDiskRig(t, journal, true), twin: newDiskRig(t, journal, false)}
				w.check("after mkfs")
				w.ops("history", 30)
				var image []byte
				w.both(func(g *diskRig) error {
					var err error
					image, err = g.dev.Snapshot() // the same bytes on both
					return err
				})

				// Checkpoint frames three deep, rewound youngest first with
				// more ops between the rewinds.
				for key := uint64(1); key <= 3; key++ {
					w.openFrame(key)
					w.ops(fmt.Sprintf("under frame %d", key), 4)
				}
				for key := uint64(3); key >= 1; key-- {
					w.rewind(key)
					w.ops(fmt.Sprintf("past the rewind of frame %d", key), 2)
				}

				// The crash probe's power cuts: a frame, a touch log, one
				// window, then image after image installed as RevertFrame +
				// Patch under a power-cut remount, with an op in between,
				// and the rollback at the end.
				w.openFrame(5)
				window := []workload.Op{
					{Kind: workload.OpCreateFile, Path: "/crash", Mode: 0644},
					{Kind: workload.OpWriteFile, Path: "/crash", Size: 3000, Byte: 0x5A},
					w.pool[w.r.Intn(len(w.pool))],
				}
				w.both(func(g *diskRig) error {
					g.inj.StartTouchLog()
					g.inj.StartWindow()
					for _, op := range window {
						workload.Execute(g.k, "/mnt", op)
					}
					if e := g.k.SyncFS("/mnt"); e != errno.OK {
						return e
					}
					g.inj.EndWindow()
					return nil
				})
				points := w.cached.inj.WindowWrites()
				if points < 5 {
					t.Fatalf("the window saw %d writes", points)
				}
				install := func(k int) {
					t.Helper()
					w.both(func(g *diskRig) error {
						return g.k.CrashRemount("/mnt", func() error {
							regions, ok := g.inj.Touched()
							if !ok {
								return fmt.Errorf("touch log lost")
							}
							var writes []fault.Write
							if k >= 0 {
								var fired bool
								var err error
								if writes, fired, err = g.inj.CrashImage(k); !fired || err != nil {
									return fmt.Errorf("crash point %d: fired %v, err %v", k, fired, err)
								}
							}
							if err := g.dev.RevertFrame(5, regions); err != nil {
								return err
							}
							return g.dev.Patch(writes)
						})
					})
				}
				for k := 0; k < points; k += 1 + w.r.Intn(3) {
					install(k)
					w.check(fmt.Sprintf("after the power cut at write %d of %d", k, points))
					w.ops(fmt.Sprintf("recovering from the cut at write %d", k), 1)
				}
				install(-1)
				w.check("after the probe's rollback")
				w.both(func(g *diskRig) error {
					g.inj.ResetTouchLog()
					g.inj.StopTouchLog()
					g.dev.CloseFrame(5)
					return nil
				})
				w.ops("past the probe", 4)

				// Frees between remounts: inside one mount, blocks are staged
				// and then freed — a symlink's target block, a large file's
				// indirect block, a directory's block — so their images go
				// back for the blocks staged after them, and the mount ends
				// in a remount that syncs what is staged, or in a power cut
				// that drops it and hands the images to the next mount.
				for round := 0; round < 6; round++ {
					d := fmt.Sprintf("/churn%d", round%2)
					target := strings.Repeat(string(rune('a'+round)), 1+w.r.Intn(300))
					churn := []workload.Op{
						{Kind: workload.OpMkdir, Path: d, Mode: 0755},
						{Kind: workload.OpSymlink, Path: d + "/s", Path2: target},
						{Kind: workload.OpCreateFile, Path: d + "/big", Mode: 0644},
						{Kind: workload.OpWriteFile, Path: d + "/big", Off: int64(w.r.Intn(BlockSize)), Size: 14 * BlockSize, Byte: byte(round + 1)},
						{Kind: workload.OpUnlink, Path: d + "/s"},
						{Kind: workload.OpTruncate, Path: d + "/big", Size: int64(w.r.Intn(8 * BlockSize))},
						{Kind: workload.OpSymlink, Path: fmt.Sprintf("/s%d", round), Path2: strings.Repeat("z", 1+w.r.Intn(900))},
						{Kind: workload.OpUnlink, Path: d + "/big"},
						{Kind: workload.OpRmdir, Path: d},
						{Kind: workload.OpMkdir, Path: d + "x", Mode: 0755},
						{Kind: workload.OpSymlink, Path: d + "x/t", Path2: target},
					}
					powerCut := round%2 == 1
					w.both(func(g *diskRig) error {
						for _, op := range churn {
							workload.Execute(g.k, "/mnt", op)
						}
						if powerCut {
							return g.k.CrashRemount("/mnt", func() error { return nil })
						}
						return g.k.Remount("/mnt")
					})
					w.check(fmt.Sprintf("after churn round %d (power cut: %v)", round, powerCut))
				}

				// Power cuts over staged metadata: what the dropped mount
				// never synced dies with it, and nothing of it reaches the
				// next mount through the cache.
				for i := 0; i < 3; i++ {
					op := w.pool[w.r.Intn(len(w.pool))]
					w.both(func(g *diskRig) error {
						workload.Execute(g.k, "/mnt", workload.Op{Kind: workload.OpCreateFile, Path: "/unsynced", Mode: 0644})
						workload.Execute(g.k, "/mnt", op)
						return g.k.CrashRemount("/mnt", func() error { return nil })
					})
					w.check(fmt.Sprintf("after a power cut under unsynced ops, then %v", op))
				}

				// A raw image load under a power cut: the disk as it stood
				// after the history.
				w.both(func(g *diskRig) error {
					return g.k.CrashRemount("/mnt", func() error { return g.dev.LoadImage(image) })
				})
				w.check("after loading the history's image")
				w.ops("past the image load", 6)
				if w.cached.mount != w.twin.mount {
					t.Errorf("%d mounts reusing buffers, %d without", w.cached.mount, w.twin.mount)
				}
				t.Logf("%d window writes, %d checks over %d mounts", points, w.checks, w.cached.mount)
			})
		}
	}
}

package verifs1

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/spare"
	"mcfs/internal/vfs"
)

// The snapshot pool is keyed: any key may be restored or discarded in any
// order, while younger and older snapshots stay open. These tests run
// every pool call twice — on the file system under test and on a
// reference twin that checkpoints by deep-copying its whole state — and
// compare a fingerprint of the internal state after every step, so a
// snapshot that shares a buffer with the live file system, or with
// another snapshot, shows up the moment an op writes through it.

// poolConfigs are the option sets the pool tests run under: clean, the
// seeded bug (it exposes bytes past EOF, so they must survive a
// checkpoint too) and an inode array small enough to fill.
var poolConfigs = []struct {
	name string
	opts []Option
}{
	{"clean", nil},
	{"truncate-no-zero", []Option{WithTruncateBug()}},
	{"eight-inodes", []Option{WithMaxInodes(8)}},
}

// fingerprint renders the whole internal state: the high-water mark (the
// array's length), every field of every slot below it and every byte of
// its buffer, those past EOF included. A slot the array's memory holds at
// or past the mark must be the zero inode.
func fingerprint(t testing.TB, f *FS) string {
	t.Helper()
	var b strings.Builder
	hwm := len(f.inodes)
	fmt.Fprintf(&b, "hwm=%d\n", hwm)
	for i, nd := range f.inodes[:cap(f.inodes)] {
		if i >= hwm {
			if nd.used || nd.mode != 0 || nd.nlink != 0 || nd.uid != 0 || nd.gid != 0 || nd.size != 0 ||
				nd.data != nil || nd.atime != 0 || nd.mtime != 0 || nd.ctime != 0 || nd.entries != nil || nd.parent != 0 {
				t.Fatalf("slot %d at or past the high-water mark %d is not the zero inode", i, hwm)
			}
			continue
		}
		fmt.Fprintf(&b, "%d used=%t mode=%o nlink=%d uid=%d gid=%d size=%d times=%d/%d/%d parent=%d entries=%v data[%d]=%x\n",
			i, nd.used, nd.mode, nd.nlink, nd.uid, nd.gid, nd.size, nd.atime, nd.mtime, nd.ctime,
			nd.parent, nd.entries, len(nd.data), sha256.Sum256(nd.data))
	}
	// A released table pins nothing: the next checkpoint fills it from
	// the start, and a slot it left behind would hold its buffers.
	for i, snap := range f.free {
		if len(snap.inodes) != 0 || slices.ContainsFunc(snap.inodes[:cap(snap.inodes)], func(nd inode) bool { return nd.data != nil || nd.entries != nil || nd.used }) {
			t.Fatalf("released table %d holds %d slots, or a slot past its end is not zero", i, len(snap.inodes))
		}
	}
	return b.String()
}

// deepCopy is the reference checkpoint: a new FS holding its own copy of
// every slot, buffer and entry list of f, an empty pool and no spares.
func deepCopy(f *FS) *FS {
	c := *f
	c.inodes = slices.Clone(f.inodes)
	for i := range c.inodes {
		c.inodes[i].data = bytes.Clone(c.inodes[i].data)
		c.inodes[i].entries = slices.Clone(c.inodes[i].entries)
	}
	c.snapshots = make(map[uint64]*snapshot)
	c.free = nil
	c.spare = spare.Slot[*store]{}
	return &c
}

// opBytes reads op arguments from a byte string; past its end it reads
// zeros.
type opBytes []byte

func (s *opBytes) next() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

var poolNames = []string{"a", "b", "c"}

// fsOp is one file system call with its arguments, decoded once so that
// both twins run the same call.
type fsOp struct {
	kind      byte
	ino       vfs.Ino
	name      string
	off, size int64
	fill      byte
}

// poolOps weights the calls decodeOp draws, one letter per call, so that
// most walks grow files and punch holes: c create, m mkdir, w write,
// t truncate, u unlink, r rmdir, R read, d readdir, s setattr.
const poolOps = "ccmwwwwttuurrRds"

// decodeOp draws the inode among the slots f has used, an unlink or
// rmdir name among the inode's entries, and a truncate size near the
// file's end, so that most calls find what they name.
func decodeOp(s *opBytes, f *FS) fsOp {
	o := fsOp{kind: poolOps[s.next()%byte(len(poolOps))], ino: vfs.Ino(1 + int(s.next())%(len(f.inodes)-1))}
	pick := int(s.next())
	o.name = poolNames[pick%len(poolNames)]
	if ents := f.inodes[o.ino].entries; len(ents) > 0 && (o.kind == 'u' || o.kind == 'r') {
		o.name = ents[pick%len(ents)].name
	}
	o.off, o.size, o.fill = int64(s.next())*19, int64(s.next())*11, s.next()
	if o.kind == 't' {
		// Truncate near the end of the file, mostly inside its buffer.
		o.off = max(0, f.inodes[o.ino].size+int64(int8(o.fill))*8)
	}
	return o
}

// apply runs the call on f and renders what it returned beside its errno.
func (o fsOp) apply(f *FS) (string, errno.Errno) {
	switch o.kind {
	case 'c':
		ino, e := f.Create(o.ino, o.name, 0o644, 0, 0)
		return fmt.Sprint(ino), e
	case 'm':
		ino, e := f.Mkdir(o.ino, o.name, 0o755, 0, 0)
		return fmt.Sprint(ino), e
	case 'w':
		n, e := f.Write(o.ino, o.off, bytes.Repeat([]byte{o.fill}, int(o.size)))
		return fmt.Sprint(n), e
	case 't':
		size := o.off
		return "", f.Setattr(o.ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size})
	case 'u':
		return "", f.Unlink(o.ino, o.name)
	case 'r':
		return "", f.Rmdir(o.ino, o.name)
	case 'R':
		data, e := f.Read(o.ino, o.off, int(o.size), nil)
		return fmt.Sprintf("%x", data), e
	case 'd':
		ents, e := f.ReadDir(o.ino, nil)
		return fmt.Sprint(ents), e
	default:
		mode, uid, atime := vfs.Mode(o.fill)&0o777, uint32(o.size), time.Duration(o.off)
		return "", f.Setattr(o.ino, vfs.SetAttr{Valid: vfs.AttrMode | vfs.AttrUID | vfs.AttrAtime, Mode: mode, UID: uid, Atime: atime})
	}
}

// twin drives the file system under test and its deep-copy reference
// through the same calls and fails as soon as they part.
type twin struct {
	t     testing.TB
	clock *simclock.Clock
	fs    *FS
	ref   *FS
	snaps map[uint64]*FS // the reference's pool
	ok    map[byte]int   // calls that succeeded, by poolOps letter
}

func newTwin(t testing.TB, opts []Option) *twin {
	clock := simclock.New()
	return &twin{t: t, clock: clock, fs: New(clock, opts...), ref: New(clock, opts...), snaps: map[uint64]*FS{}, ok: map[byte]int{}}
}

func (w *twin) same(step string) {
	w.t.Helper()
	if got, want := fingerprint(w.t, w.fs), fingerprint(w.t, w.ref); got != want {
		w.t.Fatalf("after %s the state differs from the deep-copy reference:\ngot\n%s\nwant\n%s", step, got, want)
	}
	if got, want := w.fs.SnapshotCount(), len(w.snaps); got != want {
		w.t.Fatalf("after %s the pool holds %d snapshots, want %d", step, got, want)
	}
}

func (w *twin) op(o fsOp) {
	w.t.Helper()
	w.clock.Advance(time.Microsecond)
	got, e := o.apply(w.fs)
	want, refE := o.apply(w.ref)
	if got != want || e != refE {
		w.t.Fatalf("op %+v returned %q, %v; the reference %q, %v", o, got, e, want, refE)
	}
	if e == errno.OK {
		w.ok[o.kind]++
	}
	w.same(fmt.Sprintf("op %+v", o))
}

func (w *twin) checkpoint(key uint64) {
	w.t.Helper()
	if e := w.fs.CheckpointState(key); e != errno.OK {
		w.t.Fatalf("CheckpointState(%d): %v", key, e)
	}
	w.snaps[key] = deepCopy(w.ref)
	w.same(fmt.Sprintf("checkpoint %d", key))
}

func (w *twin) restore(key uint64) {
	w.t.Helper()
	want := errno.ENOENT
	if snap, ok := w.snaps[key]; ok {
		want = errno.OK
		w.ref = snap
		delete(w.snaps, key)
	}
	if e := w.fs.RestoreState(key); e != want {
		w.t.Fatalf("RestoreState(%d) = %v, want %v", key, e, want)
	}
	w.same(fmt.Sprintf("restore %d", key))
}

func (w *twin) discard(key uint64) {
	w.t.Helper()
	want := errno.ENOENT
	if _, ok := w.snaps[key]; ok {
		want = errno.OK
		delete(w.snaps, key)
	}
	if e := w.fs.DiscardState(key); e != want {
		w.t.Fatalf("DiscardState(%d) = %v, want %v", key, e, want)
	}
	w.same(fmt.Sprintf("discard %d", key))
}

// walk runs n seeded ops.
func (w *twin) walk(rng *rand.Rand, n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		raw := make(opBytes, 6)
		rng.Read(raw)
		w.op(decodeOp(&raw, w.fs))
	}
}

// TestNestedCheckpointsDoNotAlias nests three checkpoints along a seeded
// op walk, then ends them in every order with every mix of restore and
// discard — an older key restored while younger snapshots stay open, and
// those then restored or discarded — with ops run between the calls.
func TestNestedCheckpointsDoNotAlias(t *testing.T) {
	for _, cfg := range poolConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			ok := map[byte]int{}
			seed := int64(0)
			for pass := 0; pass < 4; pass++ {
				for _, order := range [][3]uint64{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
					for restores := 0; restores < 8; restores++ {
						seed++
						rng := rand.New(rand.NewSource(seed))
						w := newTwin(t, cfg.opts)
						w.walk(rng, 24)
						for key := uint64(0); key < 3; key++ {
							w.checkpoint(key)
							w.walk(rng, 8)
						}
						for i, key := range order {
							if restores&(1<<i) != 0 {
								w.restore(key)
							} else {
								w.discard(key)
							}
							w.walk(rng, 8)
						}
						for kind, n := range w.ok {
							ok[kind] += n
						}
					}
				}
			}
			// A walk whose calls all fail checks nothing: every kind of
			// call must have succeeded, and more than once.
			for _, kind := range []byte(poolOps) {
				if ok[kind] < 50 {
					t.Errorf("the walks made %d successful %q calls, want at least 50", ok[kind], kind)
				}
			}
		})
	}
}

// TestEpochWrapKeepsSnapshotsApart runs the nested walk across the wrap
// of the 32-bit epoch counter. Inodes written in epoch 1 and left alone
// until the counter comes round to 1 again still share their buffers
// with the snapshots taken on the way; the wrap must not let a write
// through into them.
func TestEpochWrapKeepsSnapshotsApart(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newTwin(t, nil)
		w.walk(rng, 24)
		if w.fs.epoch != 1 {
			t.Fatalf("a new FS that took no checkpoint is in epoch %d, want 1", w.fs.epoch)
		}
		w.fs.epoch = math.MaxUint32 - 1
		for key := uint64(0); key < 3; key++ {
			w.checkpoint(key)
			w.walk(rng, 8)
		}
		if w.fs.epoch != 2 {
			t.Fatalf("three checkpoints from epoch %d led to epoch %d, want 2 past the wrap", uint32(math.MaxUint32-1), w.fs.epoch)
		}
		for _, key := range []uint64{0, 2, 1} {
			w.restore(key)
			w.walk(rng, 8)
		}
	}
}

// TestRecycledCopiesStayPrivate runs 240 checkpoint → walk → restore or
// discard cycles on one file system against the deep-copy twin, with up
// to three snapshots open and ended in any order. Each restore hands the
// copies its epoch made to the spare store, and the next cycles' ops
// reuse them while older snapshots still share what they were copied
// from, so a recycled part that a snapshot can still reach, a released
// table that still names it, or recycled memory handed out without its
// garbage shows up as a difference from the twin. Collections are off
// while it runs, so none takes the store back and how often a restore
// leaves it holding something depends on the seed alone.
func TestRecycledCopiesStayPrivate(t *testing.T) {
	for _, cfg := range poolConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			noCollections(t)
			rng := rand.New(rand.NewSource(1))
			w := newTwin(t, cfg.opts)
			w.walk(rng, 24)
			var open []uint64
			restores, spares := 0, 0
			for key := uint64(0); key < 240; key++ {
				w.checkpoint(key)
				open = append(open, key)
				w.walk(rng, 6)
				for len(open) == 3 || (len(open) > 0 && rng.Intn(2) == 0) {
					i := rng.Intn(len(open))
					if rng.Intn(4) == 0 {
						w.discard(open[i])
					} else {
						w.restore(open[i])
						restores++
						if st := w.fs.spares(); st != nil && len(st.bufs)+len(st.lists) > 0 {
							spares++
						}
					}
					open = slices.Delete(open, i, i+1)
					w.walk(rng, 3)
				}
			}
			// The walk must reach recycled memory.
			if spares < restores/2 {
				t.Errorf("the spare store held a buffer or an entry list after %d of %d restores, want at least half", spares, restores)
			} else {
				t.Logf("the spare store held a buffer or an entry list after %d of %d restores", spares, restores)
			}
		})
	}
}

// noCollections turns the garbage collector off until t ends, and then
// collects what t left.
func noCollections(t *testing.T) {
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(math.MaxInt64)
	t.Cleanup(func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
		runtime.GC()
	})
}

// FuzzCheckpointPool decodes its input into ops and checkpoint, restore
// and discard calls on four keys, in any order, against the deep-copy
// reference.
func FuzzCheckpointPool(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0, 0, 0, 40, 5, 9, 0, 0, 3, 1, 3, 3, 1, 0, 7, 7, 7, 7, 2, 1, 3, 0, 3, 9, 1, 1})
	f.Add([]byte{1, 3, 0, 1, 2, 0, 0, 3, 2, 3, 1, 2, 200, 90, 7, 3, 1, 3, 2, 3, 3, 2, 40, 0, 0, 4, 1, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := opBytes(data)
		w := newTwin(t, poolConfigs[int(s.next())%len(poolConfigs)].opts)
		for step := 0; len(s) > 0 && step < 256; step++ {
			switch c := s.next(); c % 4 {
			case 0:
				w.checkpoint(uint64(c/4) % 4)
			case 1:
				w.restore(uint64(c/4) % 4)
			case 2:
				w.discard(uint64(c/4) % 4)
			default:
				w.op(decodeOp(&s, w.fs))
			}
		}
	})
}

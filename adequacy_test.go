package mcfs_test

import (
	"crypto/md5"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/abstraction"
	"mcfs/internal/errno"
	"mcfs/internal/mc"
	"mcfs/internal/workload"
)

// adequacyWalk checks the law state matching rests on: two trails that
// reach one abstract state behave alike from it. The checker prunes a
// state whose hash it has seen, which is sound only if every op then gives
// the same per-target results and leads to the same abstract state
// whichever concrete state the hash stood for.
//
// It walks every trail of pool ops up to a depth from a session's current
// state, with no visited table, through Session.Config()'s kernel,
// trackers and checker, and keys each step by (parent hash, op). The first
// trail to reach a key is kept; a later one whose per-target Ret, errno or
// data MD5, or whose successor hash, differs is a violation: the two
// trails are its explanation.
type adequacyWalk struct {
	cfg  *mc.Config
	ops  []workload.Op
	hash func() (abstraction.State, errno.Errno)

	first      map[adequacyKey]adequacyStep
	trail      []workload.Op
	nextKey    uint64
	steps      int
	violations []adequacyViolation
}

type adequacyKey struct {
	parent abstraction.State
	op     workload.Op
}

// adequacyStep is what one op did from one parent state: per-target
// results and the state it reached. trail leads to the parent.
type adequacyStep struct {
	trail   []workload.Op
	results []adequacyResult
	next    abstraction.State
}

type adequacyResult struct {
	ret  int64
	err  errno.Errno
	data [md5.Size]byte
}

func (r adequacyResult) String() string {
	return fmt.Sprintf("{ret %d, %v, data %x}", r.ret, r.err, r.data[:4])
}

type adequacyViolation struct {
	op            workload.Op
	first, second adequacyStep
}

func (v adequacyViolation) String() string {
	side := func(s adequacyStep) string {
		return fmt.Sprintf("after [%s]: results %v, successor %x", trailString(s.trail), s.results, s.next[:4])
	}
	return fmt.Sprintf("%v %s; %s", v.op, side(v.first), side(v.second))
}

func trailString(trail []workload.Op) string {
	parts := make([]string, len(trail))
	for i, op := range trail {
		parts[i] = op.String()
	}
	return strings.Join(parts, ", ")
}

// newAdequacyWalk prepares a walk of s's pool, hashing states with hash
// (the checker's own StateHash when nil), and equalizes free space first
// when the session's run would.
func newAdequacyWalk(t *testing.T, s *mcfs.Session, hash func() (abstraction.State, errno.Errno)) *adequacyWalk {
	t.Helper()
	cfg := s.Config()
	if hash == nil {
		hash = cfg.Checker.StateHash
	}
	if cfg.EqualizeFreeSpace {
		if e := cfg.Checker.EqualizeFreeSpace(); e != errno.OK {
			t.Fatalf("equalizing free space: %v", e)
		}
	}
	return &adequacyWalk{cfg: cfg, ops: cfg.Pool.Enumerate(), hash: hash, first: make(map[adequacyKey]adequacyStep)}
}

// step runs op on every target between the trackers' per-op hooks, as the
// explorer's step does, and hashes the state it reaches.
func (w *adequacyWalk) step(op workload.Op) (adequacyStep, error) {
	for _, tr := range w.cfg.Trackers {
		if err := tr.PreOp(); err != nil {
			return adequacyStep{}, fmt.Errorf("pre-op %s: %w", tr.Name(), err)
		}
	}
	var s adequacyStep
	for _, tgt := range w.cfg.Checker.Targets() {
		r := workload.Execute(w.cfg.Kernel, tgt.MountPoint, op)
		s.results = append(s.results, adequacyResult{ret: r.Ret, err: r.Err, data: md5.Sum(r.Data)})
	}
	for _, tr := range w.cfg.Trackers {
		if err := tr.PostOp(); err != nil {
			return adequacyStep{}, fmt.Errorf("post-op %s: %w", tr.Name(), err)
		}
	}
	var e errno.Errno
	if s.next, e = w.hash(); e != errno.OK {
		return adequacyStep{}, fmt.Errorf("hashing the state after %v: %v", op, e)
	}
	w.steps++
	return s, nil
}

// walk runs every op from the current state, whose hash is parent, and
// every trail of depth-1 more ops below each, restoring the state after
// each op.
func (w *adequacyWalk) walk(depth int, parent abstraction.State) error {
	if depth == 0 {
		return nil
	}
	for _, op := range w.ops {
		key := w.nextKey
		w.nextKey++
		for _, tr := range w.cfg.Trackers {
			if err := tr.Checkpoint(key); err != nil {
				return fmt.Errorf("checkpoint %s: %w", tr.Name(), err)
			}
		}
		s, err := w.step(op)
		if err != nil {
			return err
		}
		k := adequacyKey{parent, op}
		if f, ok := w.first[k]; !ok {
			s.trail = slices.Clone(w.trail)
			w.first[k] = s
		} else if f.next != s.next || !slices.Equal(f.results, s.results) {
			s.trail = slices.Clone(w.trail)
			w.violations = append(w.violations, adequacyViolation{op: op, first: f, second: s})
		}
		w.trail = append(w.trail, op)
		if err := w.walk(depth-1, s.next); err != nil {
			return err
		}
		w.trail = w.trail[:len(w.trail)-1]
		for _, tr := range w.cfg.Trackers {
			if err := tr.Restore(key); err != nil {
				return fmt.Errorf("restore %s: %w", tr.Name(), err)
			}
		}
	}
	return nil
}

// run walks to depth from the current state and returns the violations.
func (w *adequacyWalk) run(t *testing.T, depth int) []adequacyViolation {
	t.Helper()
	root, e := w.hash()
	if e != errno.OK {
		t.Fatalf("hashing the root state: %v", e)
	}
	if err := w.walk(depth, root); err != nil {
		t.Fatalf("after [%s]: %v", trailString(w.trail), err)
	}
	return w.violations
}

// TestStateMatchingIsAdequate: on every file system pairing — ext2/ext4,
// ext4/jffs2 (whose per-op remounts go through the scan cache's memo),
// verifs1/verifs2 over VeriFS1's pool, xfs/verifs2 — every pair of trails
// of up to two ops that reach one abstract state gives every pool op the
// same per-target results and the same successor hash.
func TestStateMatchingIsAdequate(t *testing.T) {
	for _, kinds := range [][2]string{{"ext2", "ext4"}, {"ext4", "jffs2"}, {"verifs1", "verifs2"}, {"xfs", "verifs2"}} {
		name := kinds[0] + "-" + kinds[1]
		t.Run(name, func(t *testing.T) {
			s, err := mcfs.NewSession(mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: kinds[0]}, {Kind: kinds[1]}}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := newAdequacyWalk(t, s, nil)
			violations := w.run(t, 2)
			if n := len(w.ops); w.steps != n+n*n {
				t.Errorf("the walk took %d steps over a pool of %d ops, want %d", w.steps, n, n+n*n)
			}
			for i, v := range violations {
				if i == 5 {
					t.Errorf("... %d violations in all", len(violations))
					break
				}
				t.Errorf("two trails reach one state and diverge: %v", v)
			}
			t.Logf("%d steps, %d distinct (parent, op) keys", w.steps, len(w.first))
		})
	}
}

// TestAdequacyCatchesAnNlinkBlindHash seeds the abstraction defect the
// law exists to catch: a walk that skips Nlink. From a state holding /f0,
// linking it to /f1 and creating /f1 then hash alike — two empty files of
// one mode — but a write to /f0 reaches /f1 only through the link. The
// walk names that divergence; with the checker's own hash it finds none
// from the same state.
func TestAdequacyCatchesAnNlinkBlindHash(t *testing.T) {
	for _, blind := range []bool{false, true} {
		t.Run(fmt.Sprintf("blind=%v", blind), func(t *testing.T) {
			s, err := mcfs.NewSession(mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cfg := s.Config()
			var hash func() (abstraction.State, errno.Errno)
			if blind {
				hash = func() (abstraction.State, errno.Errno) { return nlinkBlindHash(cfg) }
			}
			w := newAdequacyWalk(t, s, hash)
			if _, err := w.step(workload.Op{Kind: workload.OpCreateFile, Path: "/f0", Mode: 0644}); err != nil {
				t.Fatal(err)
			}
			violations := w.run(t, 2)
			if !blind {
				if len(violations) != 0 {
					t.Errorf("the checker's hash: %d violations, the first %v", len(violations), violations[0])
				}
				return
			}
			if len(violations) == 0 {
				t.Fatal("an Nlink-blind hash: no violations")
			}
			link := workload.Op{Kind: workload.OpLink, Path: "/f0", Path2: "/f1"}
			create := workload.Op{Kind: workload.OpCreateFile, Path: "/f1", Mode: 0644}
			caught := false
			for _, v := range violations {
				trails := [][]workload.Op{v.first.trail, v.second.trail}
				if v.op.Kind == workload.OpWriteFile && v.op.Path == "/f0" &&
					slices.ContainsFunc(trails, func(tr []workload.Op) bool { return slices.Equal(tr, []workload.Op{link}) }) &&
					slices.ContainsFunc(trails, func(tr []workload.Op) bool { return slices.Equal(tr, []workload.Op{create}) }) {
					caught = true
				}
			}
			if !caught {
				t.Errorf("an Nlink-blind hash: %d violations, none a write to /f0 after a link against one after a create: %v", len(violations), violations)
			}
			t.Logf("an Nlink-blind hash: %d violations, the first %v", len(violations), violations[0])
		})
	}
}

// nlinkBlindHash is the checker's combined state hash computed from
// records whose link counts are zeroed: the seeded defect.
func nlinkBlindHash(cfg *mc.Config) (abstraction.State, errno.Errno) {
	opts := cfg.Checker.AbstractionOptions()
	h := md5.New()
	for _, tgt := range cfg.Checker.Targets() {
		records, e := abstraction.Snapshot(cfg.Kernel, tgt.MountPoint, opts)
		if e != errno.OK {
			return abstraction.State{}, e
		}
		for i := range records {
			records[i].Nlink = 0
		}
		s := abstraction.HashRecords(records, opts)
		h.Write(s[:])
	}
	var combined abstraction.State
	h.Sum(combined[:0])
	return combined, errno.OK
}

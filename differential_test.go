package mcfs_test

// Differential property tests: long pseudo-random operation sequences
// applied to several independently implemented file systems must produce
// identical observable behavior after every step. This is MCFS's core
// claim exercised as a randomized property rather than systematic DFS —
// five implementations (two block-based, one log-structured, two
// in-memory) act as mutual oracles.

import (
	"math/rand"
	"testing"

	"mcfs"
	"mcfs/internal/vfs"
)

// randomOp draws one fully parameterized operation from a small universe.
func randomOp(r *rand.Rand, includeNamespace bool) mcfs.Op {
	files := []string{"/a", "/b", "/d/c", "/d/e"}
	dirs := []string{"/d", "/d2"}
	kinds := []mcfs.OpKind{
		mcfs.OpCreateFile, mcfs.OpWriteFile, mcfs.OpTruncate,
		mcfs.OpMkdir, mcfs.OpRmdir, mcfs.OpUnlink, mcfs.OpChmod, mcfs.OpRead,
	}
	if includeNamespace {
		kinds = append(kinds, mcfs.OpRename, mcfs.OpLink, mcfs.OpSymlink)
	}
	kind := kinds[r.Intn(len(kinds))]
	op := mcfs.Op{Kind: kind}
	switch kind {
	case mcfs.OpMkdir, mcfs.OpRmdir:
		op.Path = dirs[r.Intn(len(dirs))]
		op.Mode = 0755
	case mcfs.OpWriteFile:
		op.Path = files[r.Intn(len(files))]
		op.Off = int64(r.Intn(3)) * 900
		op.Size = int64(r.Intn(3000)) + 1
		op.Byte = byte(r.Intn(256))
	case mcfs.OpTruncate:
		op.Path = files[r.Intn(len(files))]
		op.Size = int64(r.Intn(4000))
	case mcfs.OpChmod:
		op.Path = files[r.Intn(len(files))]
		op.Mode = vfs.Mode(r.Intn(0o1000))
	case mcfs.OpRename, mcfs.OpLink:
		op.Path = files[r.Intn(len(files))]
		op.Path2 = files[r.Intn(len(files))]
	case mcfs.OpSymlink:
		op.Path = files[r.Intn(len(files))] + ".ln"
		op.Path2 = files[r.Intn(len(files))]
	default:
		op.Path = files[r.Intn(len(files))]
		op.Mode = 0644
	}
	return op
}

// runDifferential drives a random sequence through a session, verifying
// after every operation via trail replay (VerifyTrail checks results and
// abstract states at each step).
func runDifferential(t *testing.T, targets []mcfs.TargetSpec, includeNamespace bool, seed int64, steps int) {
	t.Helper()
	s, err := mcfs.NewSession(mcfs.Options{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(seed))
	trail := make([]mcfs.Op, steps)
	for i := range trail {
		trail[i] = randomOp(r, includeNamespace)
	}
	d, _, err := s.VerifyTrail(trail, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("seed %d: implementations diverged: %v", seed, d)
	}
}

func TestDifferentialAllFiveFS(t *testing.T) {
	// VeriFS1 participates, so the op universe excludes rename/link/
	// symlink (§5).
	targets := []mcfs.TargetSpec{
		{Kind: "ext2"},
		{Kind: "ext4"},
		{Kind: "jffs2"},
		{Kind: "verifs1"},
		{Kind: "verifs2"},
	}
	for seed := int64(1); seed <= 5; seed++ {
		runDifferential(t, targets, false, seed, 120)
	}
}

func TestDifferentialFullOpsFourFS(t *testing.T) {
	// Without VeriFS1 the whole operation set, including renames, hard
	// links, and symlinks, must agree across four implementations.
	targets := []mcfs.TargetSpec{
		{Kind: "ext2"},
		{Kind: "ext4"},
		{Kind: "jffs2"},
		{Kind: "verifs2"},
	}
	for seed := int64(1); seed <= 5; seed++ {
		runDifferential(t, targets, true, seed, 120)
	}
}

func TestDifferentialXFS(t *testing.T) {
	if testing.Short() {
		t.Skip("xfs differential in -short mode (16 MiB devices)")
	}
	targets := []mcfs.TargetSpec{
		{Kind: "xfs"},
		{Kind: "verifs2"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		runDifferential(t, targets, true, seed, 150)
	}
}

func TestDifferentialLongSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential in -short mode")
	}
	runDifferential(t, []mcfs.TargetSpec{
		{Kind: "ext4"},
		{Kind: "verifs2"},
	}, true, 424242, 1200)
}

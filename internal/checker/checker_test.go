package checker

import (
	"strings"
	"testing"

	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/verifs1"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// twoVeriFS mounts VeriFS1 at /a and VeriFS2 at /b and returns a checker.
func twoVeriFS(t *testing.T, v2opts ...verifs2.Option) (*kernel.Kernel, *Checker) {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	f1 := verifs1.New(clk)
	f2 := verifs2.New(clk, v2opts...)
	if err := k.Mount("/a", kernel.FilesystemSpec{
		Type: "verifs1", Mounter: func() (vfs.FS, error) { return f1, nil },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Mount("/b", kernel.FilesystemSpec{
		Type: "verifs2", Mounter: func() (vfs.FS, error) { return f2, nil },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	c := New(k, []Target{{Name: "verifs1", MountPoint: "/a"}, {Name: "verifs2", MountPoint: "/b"}})
	return k, c
}

func apply(t *testing.T, k *kernel.Kernel, path, content string) {
	t.Helper()
	fd, e := k.Open(path, vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatalf("Open(%s): %v", path, e)
	}
	if _, e := k.WriteFD(fd, []byte(content)); e != errno.OK {
		t.Fatal(e)
	}
	k.Close(fd)
}

func TestCheckResultsAgreement(t *testing.T) {
	_, c := twoVeriFS(t)
	if d := c.CheckResults("write", []OpResult{{Ret: 5}, {Ret: 5}}); d != nil {
		t.Errorf("agreeing results flagged: %v", d)
	}
	if d := c.CheckResults("write", []OpResult{{Ret: 5}, {Ret: 3}}); d == nil {
		t.Error("return-value mismatch not flagged")
	} else if d.Kind != "return-value" {
		t.Errorf("kind = %q", d.Kind)
	}
	if d := c.CheckResults("open", []OpResult{{Err: errno.ENOENT, Ret: -1}, {Err: errno.EEXIST, Ret: -1}}); d == nil {
		t.Error("errno mismatch not flagged")
	} else if d.Kind != "errno" {
		t.Errorf("kind = %q", d.Kind)
	}
	// Both failing with the same errno: consistent error behavior, OK.
	if d := c.CheckResults("open", []OpResult{{Err: errno.ENOENT, Ret: -1}, {Err: errno.ENOENT, Ret: -1}}); d != nil {
		t.Errorf("consistent errors flagged: %v", d)
	}
	// Return values ignored when both fail.
	if d := c.CheckResults("write", []OpResult{{Err: errno.ENOSPC, Ret: -1}, {Err: errno.ENOSPC, Ret: 0}}); d != nil {
		t.Errorf("error-path ret compared: %v", d)
	}
}

func TestCheckResultsData(t *testing.T) {
	_, c := twoVeriFS(t)
	if d := c.CheckResults("read", []OpResult{{Data: []byte("same")}, {Data: []byte("same")}}); d != nil {
		t.Errorf("equal data flagged: %v", d)
	}
	d := c.CheckResults("read", []OpResult{{Data: []byte("aaaa")}, {Data: []byte("bbbb")}})
	if d == nil || d.Kind != "data" {
		t.Errorf("data mismatch not flagged: %v", d)
	}
}

func TestCheckStatesEqual(t *testing.T) {
	k, c := twoVeriFS(t)
	for _, mnt := range []string{"/a", "/b"} {
		if e := k.Mkdir(mnt+"/dir", 0755); e != errno.OK {
			t.Fatal(e)
		}
		apply(t, k, mnt+"/dir/file", "identical content")
	}
	d, h, e := c.CheckAndHash("write_file")
	if e != errno.OK {
		t.Fatal(e)
	}
	if d != nil {
		t.Errorf("identical states flagged: %v", d)
	}
	// The engine keys its initial state with StateHash and every later
	// one with the hash this walk returns: the two must be one function.
	if want, e := c.StateHash(); e != errno.OK || h != want {
		t.Errorf("CheckAndHash hash = %x, StateHash = %x (%v)", h, want, e)
	}
}

// TestWithMemoJudgesAsWithout: a checker whose walks share a content memo
// returns the plain checker's hashes and verdicts, also once the memo
// holds what a diverging target used to store.
func TestWithMemoJudgesAsWithout(t *testing.T) {
	k, c := twoVeriFS(t)
	mc := c.WithMemo(abstraction.NewMemo())
	same := func(what string) *Discrepancy {
		t.Helper()
		d, h, e := c.CheckAndHash(what)
		dm, hm, em := mc.CheckAndHash(what)
		if e != errno.OK || em != errno.OK {
			t.Fatalf("%s: %v, through the memo %v", what, e, em)
		}
		if h != hm || (d == nil) != (dm == nil) || d != nil && strings.Join(d.Details, "\n") != strings.Join(dm.Details, "\n") {
			t.Errorf("%s: %x %v, through the memo %x %v", what, h, d, hm, dm)
		}
		sh, e := c.StateHash()
		shm, em := mc.StateHash()
		if e != errno.OK || em != errno.OK || sh != shm {
			t.Errorf("%s: StateHash %x (%v), through the memo %x (%v)", what, sh, e, shm, em)
		}
		return d
	}
	apply(t, k, "/a/f", "same")
	apply(t, k, "/b/f", "same")
	if d := same("equal"); d != nil {
		t.Errorf("equal states flagged: %v", d)
	}
	apply(t, k, "/b/f", "SAME")
	if d := same("diverged"); d == nil || d.Kind != "abstract-state" {
		t.Errorf("divergence after the memo saw the old content: %v", d)
	}
	// The copy's record buffers hold the longer trees: a shrunk tree must
	// not see their tails.
	for _, p := range []string{"/a/f", "/b/f"} {
		if e := k.Unlink(p); e != errno.OK {
			t.Fatal(e)
		}
	}
	if d := same("shrunk"); d != nil {
		t.Errorf("equal shrunk states flagged: %v", d)
	}
	if c.memo != nil || c.recs != nil {
		t.Error("WithMemo gave the original checker a memo or record buffers")
	}
}

func TestCheckStatesDivergence(t *testing.T) {
	k, c := twoVeriFS(t)
	apply(t, k, "/a/file", "AAA")
	apply(t, k, "/b/file", "BBB")
	d, _, e := c.CheckAndHash("write_file")
	if e != errno.OK {
		t.Fatal(e)
	}
	if d == nil {
		t.Fatal("divergent states not flagged")
	}
	if d.Kind != "abstract-state" {
		t.Errorf("kind = %q", d.Kind)
	}
	if len(d.Details) == 0 || !strings.Contains(d.Details[0], "verifs1") {
		t.Errorf("details = %v", d.Details)
	}
}

func TestStateHashChangesWithState(t *testing.T) {
	k, c := twoVeriFS(t)
	h1, e := c.StateHash()
	if e != errno.OK {
		t.Fatal(e)
	}
	apply(t, k, "/a/f", "x")
	h2, e := c.StateHash()
	if e != errno.OK {
		t.Fatal(e)
	}
	if h1 == h2 {
		t.Error("state hash blind to mutation")
	}
}

func TestEqualizeFreeSpace(t *testing.T) {
	// ext2 (256 KiB, lost+found, journalless) vs ext4 (256 KiB with a
	// journal region) expose different usable capacities; after
	// equalization their free bytes must agree closely.
	clk := simclock.New()
	k := kernel.New(clk)
	devA := blockdev.NewRAM("ramA", 256*1024, clk)
	if err := extfs.Mkfs(devA, extfs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	devB := blockdev.NewRAM("ramB", 256*1024, clk)
	if err := extfs.Mkfs(devB, extfs.MkfsOptions{Journal: true}); err != nil {
		t.Fatal(err)
	}
	mount := func(point string, dev *blockdev.Disk, name string) {
		if err := k.Mount(point, kernel.FilesystemSpec{
			Type:      name,
			Dev:       dev,
			Mounter:   func() (vfs.FS, error) { return extfs.Mount(dev, clk) },
			Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
		}, kernel.MountOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	mount("/ext2", devA, "ext2")
	mount("/ext4", devB, "ext4")

	sA, _ := k.Statfs("/ext2")
	sB, _ := k.Statfs("/ext4")
	if sA.FreeBytes() == sB.FreeBytes() {
		t.Fatal("test premise broken: capacities already equal")
	}

	c := New(k, []Target{{Name: "ext2", MountPoint: "/ext2"}, {Name: "ext4", MountPoint: "/ext4"}})
	if e := c.EqualizeFreeSpace(); e != errno.OK {
		t.Fatalf("EqualizeFreeSpace: %v", e)
	}
	sA, _ = k.Statfs("/ext2")
	sB, _ = k.Statfs("/ext4")
	diff := sA.FreeBytes() - sB.FreeBytes()
	if diff < 0 {
		diff = -diff
	}
	// Within a couple of blocks (metadata overhead of the dummy file).
	if diff > 4*1024 {
		t.Errorf("free space still differs by %d bytes (%d vs %d)", diff, sA.FreeBytes(), sB.FreeBytes())
	}
	// The dummy file must not affect abstract-state equality.
	d, _, e := c.CheckAndHash("equalize")
	if e != errno.OK {
		t.Fatal(e)
	}
	if d != nil {
		t.Errorf("dummy file visible in abstract state: %v", d)
	}
}

func TestSingleTargetNoStateCheck(t *testing.T) {
	clk := simclock.New()
	k := kernel.New(clk)
	f1 := verifs1.New(clk)
	if err := k.Mount("/a", kernel.FilesystemSpec{
		Type: "verifs1", Mounter: func() (vfs.FS, error) { return f1, nil },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	c := New(k, []Target{{Name: "verifs1", MountPoint: "/a"}})
	d, _, e := c.CheckAndHash("noop")
	if e != errno.OK || d != nil {
		t.Errorf("single-target check = (%v, %v)", d, e)
	}
}

// threeVeriFS mounts three VeriFS2 instances for majority-vote tests.
func threeVeriFS(t *testing.T) (*kernel.Kernel, *Checker) {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	for i := 0; i < 3; i++ {
		f := verifs2.New(clk)
		point := []string{"/a", "/b", "/c"}[i]
		if err := k.Mount(point, kernel.FilesystemSpec{
			Type: "verifs2", Mounter: func() (vfs.FS, error) { return f, nil },
		}, kernel.MountOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c := New(k, []Target{
		{Name: "fs-a", MountPoint: "/a"},
		{Name: "fs-b", MountPoint: "/b"},
		{Name: "fs-c", MountPoint: "/c"},
	})
	return k, c
}

func TestMajorityResultsAgreement(t *testing.T) {
	_, c := threeVeriFS(t)
	ok := []OpResult{{Ret: 5}, {Ret: 5}, {Ret: 5}}
	if d := c.CheckResultsMajority("write", ok); d != nil {
		t.Errorf("agreeing trio flagged: %v", d)
	}
}

func TestMajorityResultsNamesDeviant(t *testing.T) {
	_, c := threeVeriFS(t)
	d := c.CheckResultsMajority("write", []OpResult{{Ret: 5}, {Ret: 5}, {Ret: 3}})
	if d == nil || d.Kind != "majority-vote" {
		t.Fatalf("deviant not flagged: %v", d)
	}
	if !strings.Contains(strings.Join(d.Details, " "), "fs-c deviates") {
		t.Errorf("fs-c not named: %v", d.Details)
	}
	// Errno deviant.
	d = c.CheckResultsMajority("open", []OpResult{
		{Err: errno.ENOENT, Ret: -1}, {Err: errno.EEXIST, Ret: -1}, {Err: errno.ENOENT, Ret: -1},
	})
	if d == nil || !strings.Contains(strings.Join(d.Details, " "), "fs-b deviates") {
		t.Errorf("errno deviant not named: %v", d)
	}
}

func TestMajorityResultsTie(t *testing.T) {
	_, c := threeVeriFS(t)
	d := c.CheckResultsMajority("write", []OpResult{{Ret: 1}, {Ret: 2}, {Ret: 3}})
	if d == nil {
		t.Fatal("three-way tie not flagged")
	}
	joined := strings.Join(d.Details, " ")
	if !strings.Contains(joined, "no majority") {
		t.Errorf("tie not reported as no-majority: %v", d.Details)
	}
}

func TestMajorityResultsTwoTargetsFallsBack(t *testing.T) {
	_, c := twoVeriFS(t)
	d := c.CheckResultsMajority("open", []OpResult{{Err: errno.ENOENT, Ret: -1}, {Err: errno.OK}})
	if d == nil || d.Kind != "errno" {
		t.Errorf("two-target fallback = %v", d)
	}
}

func TestMajorityStateCheckNamesDeviant(t *testing.T) {
	k, c := threeVeriFS(t)
	// Same file everywhere, different content on fs-b only.
	for _, mnt := range []string{"/a", "/c"} {
		apply(t, k, mnt+"/f", "common")
	}
	apply(t, k, "/b/f", "ODD")
	d, _, e := c.CheckAndHashMajority("write_file")
	if e != errno.OK {
		t.Fatal(e)
	}
	if d == nil {
		t.Fatal("state deviant not flagged")
	}
	joined := strings.Join(d.Details, " ")
	if !strings.Contains(joined, "fs-b deviates from majority") {
		t.Errorf("fs-b not named: %v", d.Details)
	}
}

func TestMajorityStateCheckClean(t *testing.T) {
	k, c := threeVeriFS(t)
	for _, mnt := range []string{"/a", "/b", "/c"} {
		apply(t, k, mnt+"/f", "common")
	}
	d, h, e := c.CheckAndHashMajority("write_file")
	if e != errno.OK {
		t.Fatal(e)
	}
	if d != nil {
		t.Errorf("clean trio flagged: %v", d)
	}
	if want, e := c.StateHash(); e != errno.OK || h != want {
		t.Errorf("CheckAndHashMajority hash = %x, StateHash = %x (%v)", h, want, e)
	}
}

func TestDiscrepancyError(t *testing.T) {
	d := &Discrepancy{Kind: "errno", Op: "mkdir", Details: []string{"a vs b"}}
	if !strings.Contains(d.Error(), "mkdir") || !strings.Contains(d.Error(), "errno") {
		t.Errorf("Error() = %q", d.Error())
	}
}

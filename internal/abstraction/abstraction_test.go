package abstraction

import (
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fs/xfssim"
	"mcfs/internal/kernel"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

func kernelWithVeriFS2(t testing.TB, point string) *kernel.Kernel {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	f := verifs2.New(clk)
	if err := k.Mount(point, kernel.FilesystemSpec{
		Type:    "verifs2",
		Mounter: func() (vfs.FS, error) { return f, nil },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	return k
}

func writeFile(t testing.TB, k *kernel.Kernel, path, content string) {
	t.Helper()
	fd, e := k.Open(path, vfs.OCreate|vfs.OWrOnly, 0644)
	if e != errno.OK {
		t.Fatalf("Open(%s): %v", path, e)
	}
	if _, e := k.WriteFD(fd, []byte(content)); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Close(fd); e != errno.OK {
		t.Fatal(e)
	}
}

func TestHashDeterministic(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	writeFile(t, k, "/mnt/a", "hello")
	h1, e := Hash(k, "/mnt", New())
	if e != errno.OK {
		t.Fatal(e)
	}
	h2, e := Hash(k, "/mnt", New())
	if e != errno.OK {
		t.Fatal(e)
	}
	if h1 != h2 {
		t.Error("hash not deterministic without state changes")
	}
}

func TestHashIgnoresAtime(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	writeFile(t, k, "/mnt/a", "hello")
	h1, _ := Hash(k, "/mnt", New())
	// Reading bumps atime; the abstract state must not care.
	fd, _ := k.Open("/mnt/a", vfs.ORdOnly, 0)
	k.ReadFD(fd, 100, nil)
	k.Close(fd)
	h2, _ := Hash(k, "/mnt", New())
	if h1 != h2 {
		t.Error("hash changed after atime-only update")
	}
}

func TestHashSeesContentChange(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	writeFile(t, k, "/mnt/a", "hello")
	h1, _ := Hash(k, "/mnt", New())
	writeFile(t, k, "/mnt/a", "hellO")
	h2, _ := Hash(k, "/mnt", New())
	if h1 == h2 {
		t.Error("hash blind to content change")
	}
}

func TestHashSeesMetadataChange(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	writeFile(t, k, "/mnt/a", "x")
	h1, _ := Hash(k, "/mnt", New())
	if e := k.Chmod("/mnt/a", 0600); e != errno.OK {
		t.Fatal(e)
	}
	h2, _ := Hash(k, "/mnt", New())
	if h1 == h2 {
		t.Error("hash blind to chmod")
	}
	if e := k.Chown("/mnt/a", 7, 8); e != errno.OK {
		t.Fatal(e)
	}
	h3, _ := Hash(k, "/mnt", New())
	if h2 == h3 {
		t.Error("hash blind to chown")
	}
}

func TestHashSeesNamespaceChange(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	writeFile(t, k, "/mnt/a", "x")
	h1, _ := Hash(k, "/mnt", New())
	if e := k.Rename("/mnt/a", "/mnt/b"); e != errno.OK {
		t.Fatal(e)
	}
	h2, _ := Hash(k, "/mnt", New())
	if h1 == h2 {
		t.Error("hash blind to rename")
	}
}

func TestEquivalentStatesOnDifferentFSesMatch(t *testing.T) {
	// The core §3.4 claim: two different file systems holding the same
	// logical content produce the same abstract state, despite
	// lost+found, directory-size, and entry-order differences.
	clk := simclock.New()
	k := kernel.New(clk)

	extDev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := extfs.Mkfs(extDev, extfs.MkfsOptions{Journal: true}); err != nil {
		t.Fatal(err)
	}
	if err := k.Mount("/ext4", kernel.FilesystemSpec{
		Type:      "ext4",
		Dev:       extDev,
		Mounter:   func() (vfs.FS, error) { return extfs.Mount(extDev, clk) },
		Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}

	xfsDev := blockdev.NewRAM("ram1", xfssim.MinVolumeSize, clk)
	if err := xfssim.Mkfs(xfsDev); err != nil {
		t.Fatal(err)
	}
	if err := k.Mount("/xfs", kernel.FilesystemSpec{
		Type:      "xfs",
		Dev:       xfsDev,
		Mounter:   func() (vfs.FS, error) { return xfssim.Mount(xfsDev, clk) },
		Unmounter: func(f vfs.FS) error { return f.(*xfssim.FS).Unmount() },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}

	// Apply identical operations to both, in deliberately different
	// creation orders so getdents ordering differs.
	for _, mnt := range []string{"/ext4", "/xfs"} {
		if e := k.Mkdir(mnt+"/dir", 0755); e != errno.OK {
			t.Fatal(e)
		}
	}
	writeFile(t, k, "/ext4/zz", "content")
	writeFile(t, k, "/ext4/aa", "other")
	writeFile(t, k, "/xfs/aa", "other") // reversed order
	writeFile(t, k, "/xfs/zz", "content")

	opts := New()
	h1, e := Hash(k, "/ext4", opts)
	if e != errno.OK {
		t.Fatal(e)
	}
	h2, e := Hash(k, "/xfs", opts)
	if e != errno.OK {
		t.Fatal(e)
	}
	if h1 != h2 {
		r1, _ := Snapshot(k, "/ext4", opts)
		r2, _ := Snapshot(k, "/xfs", opts)
		for _, d := range Diff(r1, r2, opts) {
			t.Log(d)
		}
		t.Error("equivalent states hash differently across ext4 and xfs")
	}
}

func TestExceptionListHidesLostFound(t *testing.T) {
	clk := simclock.New()
	k := kernel.New(clk)
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := extfs.Mkfs(dev, extfs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Mount("/mnt", kernel.FilesystemSpec{
		Type:    "ext2",
		Dev:     dev,
		Mounter: func() (vfs.FS, error) { return extfs.Mount(dev, clk) },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	records, e := Snapshot(k, "/mnt", New())
	if e != errno.OK {
		t.Fatal(e)
	}
	for _, r := range records {
		if r.Path == "/lost+found" {
			t.Error("lost+found not excluded from snapshot")
		}
	}
	// Without the exception list it shows up.
	records, _ = Snapshot(k, "/mnt", Options{})
	found := false
	for _, r := range records {
		if r.Path == "/lost+found" {
			found = true
		}
	}
	if !found {
		t.Error("lost+found missing even without exception list")
	}
}

func TestSymlinkTargetHashed(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	if e := k.Symlink("target-a", "/mnt/ln"); e != errno.OK {
		t.Fatal(e)
	}
	h1, _ := Hash(k, "/mnt", New())
	if e := k.Unlink("/mnt/ln"); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Symlink("target-b", "/mnt/ln"); e != errno.OK {
		t.Fatal(e)
	}
	h2, _ := Hash(k, "/mnt", New())
	if h1 == h2 {
		t.Error("hash blind to symlink target")
	}
}

func TestHardLinkCountHashed(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	writeFile(t, k, "/mnt/a", "x")
	writeFile(t, k, "/mnt/b", "x")
	h1, _ := Hash(k, "/mnt", New())
	// Replace b with a hard link to a: same names, same content, but
	// nlink differs — semantically different state.
	if e := k.Unlink("/mnt/b"); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Link("/mnt/a", "/mnt/b"); e != errno.OK {
		t.Fatal(e)
	}
	h2, _ := Hash(k, "/mnt", New())
	if h1 == h2 {
		t.Error("hash blind to hard-link structure")
	}
}

func TestDiffReportsOnlyIn(t *testing.T) {
	a := []Record{{Path: "/x", Kind: "file"}}
	b := []Record{{Path: "/y", Kind: "file"}}
	d := Diff(a, b, New())
	if len(d) != 2 {
		t.Fatalf("Diff = %v", d)
	}
}

func TestDiffReportsAttributeMismatch(t *testing.T) {
	a := []Record{{Path: "/x", Kind: "file", Size: 5}}
	b := []Record{{Path: "/x", Kind: "file", Size: 9}}
	d := Diff(a, b, New())
	if len(d) != 1 {
		t.Fatalf("Diff = %v", d)
	}
}

func TestDiffEmptyOnEqual(t *testing.T) {
	a := []Record{{Path: "/x", Kind: "file", Size: 5}}
	if d := Diff(a, a, New()); len(d) != 0 {
		t.Errorf("Diff(equal) = %v", d)
	}
}

package tracker

import (
	"errors"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/fuse"
	"mcfs/internal/kernel"
	"mcfs/internal/nfssim"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

func extKernel(t *testing.T) (*kernel.Kernel, blockdev.Device) {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	dev := blockdev.NewRAM("ram0", 256*1024, clk)
	if err := extfs.Mkfs(dev, extfs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Mount("/mnt", kernel.FilesystemSpec{
		Type:      "ext2",
		Dev:       dev,
		Mounter:   func() (vfs.FS, error) { return extfs.Mount(dev, clk) },
		Unmounter: func(f vfs.FS) error { return f.(*extfs.FS).Unmount() },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	return k, dev
}

func veriKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	clk := simclock.New()
	k := kernel.New(clk)
	srv := fuse.NewServer(verifs2.New(clk), fuse.ServerOptions{})
	if err := k.Mount("/mnt", kernel.FilesystemSpec{
		Type:    "verifs2",
		Mounter: func() (vfs.FS, error) { return fuse.NewClient(srv, clk), nil },
	}, kernel.MountOptions{}); err != nil {
		t.Fatal(err)
	}
	return k
}

func writeFile(t *testing.T, k *kernel.Kernel, path, content string) {
	t.Helper()
	fd, e := k.Open(path, vfs.OCreate|vfs.OWrOnly|vfs.OTrunc, 0644)
	if e != errno.OK {
		t.Fatalf("Open(%s): %v", path, e)
	}
	if _, e := k.WriteFD(fd, []byte(content)); e != errno.OK {
		t.Fatal(e)
	}
	k.Close(fd)
}

func readFile(t *testing.T, k *kernel.Kernel, path string) (string, errno.Errno) {
	t.Helper()
	fd, e := k.Open(path, vfs.ORdOnly, 0)
	if e != errno.OK {
		return "", e
	}
	defer k.Close(fd)
	data, e := k.ReadFD(fd, 1<<20)
	return string(data), e
}

func testRoundtrip(t *testing.T, k *kernel.Kernel, tr Tracker) {
	t.Helper()
	writeFile(t, k, "/mnt/file", "state-A")
	if err := tr.Checkpoint(1); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	writeFile(t, k, "/mnt/file", "state-B!")
	if e := k.Mkdir("/mnt/newdir", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if err := tr.Restore(1); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got, e := readFile(t, k, "/mnt/file")
	if e != errno.OK || got != "state-A" {
		t.Errorf("after restore: (%q, %v)", got, e)
	}
	if _, e := k.Stat("/mnt/newdir"); e != errno.ENOENT {
		t.Errorf("newdir survived restore: %v", e)
	}
}

func TestRemountTrackerRoundtrip(t *testing.T) {
	k, _ := extKernel(t)
	testRoundtrip(t, k, NewRemount(k, "/mnt", true))
}

func TestRemountTrackerNoPerOpRemounts(t *testing.T) {
	k, _ := extKernel(t)
	tr := NewRemount(k, "/mnt", false)
	if err := tr.PreOp(); err != nil {
		t.Fatal(err)
	}
	testRoundtrip(t, k, tr)
}

func TestCheckpointTrackerRoundtrip(t *testing.T) {
	k := veriKernel(t)
	testRoundtrip(t, k, NewCheckpoint(k, "/mnt"))
}

func TestVMSnapshotTrackerRoundtripAndLatency(t *testing.T) {
	k := veriKernel(t)
	inner := NewCheckpoint(k, "/mnt")
	tr := NewVMSnapshot(NewVMGroup(k), inner)
	before := k.Clock().Now()
	testRoundtrip(t, k, tr)
	elapsed := k.Clock().Now() - before
	if elapsed < VMCheckpointLatency+VMRestoreLatency {
		t.Errorf("VM snapshot pair charged %v, want at least %v",
			elapsed, VMCheckpointLatency+VMRestoreLatency)
	}
	if tr.StateBytes() <= inner.StateBytes() {
		t.Error("VM image not larger than bare FS state")
	}
}

func TestRemountRestoreUnknownKey(t *testing.T) {
	k, _ := extKernel(t)
	tr := NewRemount(k, "/mnt", false)
	if err := tr.Restore(42); err == nil {
		t.Error("Restore(unknown) succeeded")
	}
}

func TestRemountStateBytesIsDeviceSize(t *testing.T) {
	k, dev := extKernel(t)
	tr := NewRemount(k, "/mnt", false)
	if got := tr.StateBytes(); got != dev.Size() {
		t.Errorf("StateBytes = %d, want %d", got, dev.Size())
	}
}

func TestDiskOnlyTrackerCorruptsVolume(t *testing.T) {
	// Experiment E8 (§3.2): track only the persistent state, restore it
	// under the live mount, keep operating — the volume ends up corrupt
	// ("directory entries with corrupted or zeroed inodes").
	k, dev := extKernel(t)
	tr := NewDiskOnly(k, "/mnt")

	writeFile(t, k, "/mnt/base", "base")
	if err := tr.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	// Advance the state: new files allocate inodes and blocks, flushed to
	// disk so the checkpoint and live state genuinely diverge on disk.
	writeFile(t, k, "/mnt/after1", "1111")
	writeFile(t, k, "/mnt/after2", "2222")
	if e := k.SyncFS("/mnt"); e != errno.OK {
		t.Fatal(e)
	}
	// Roll the DISK back while the mount's in-memory metadata still
	// describes the newer world.
	if err := tr.Restore(1); err != nil {
		t.Fatal(err)
	}
	// Keep using the stale mount: these operations write metadata derived
	// from the in-memory caches over the restored image.
	writeFile(t, k, "/mnt/post", "pppp")
	if e := k.SyncFS("/mnt"); e != errno.OK {
		t.Fatal(e)
	}
	// Unmount and fsck the device: corruption expected.
	if err := k.Unmount("/mnt"); err != nil {
		t.Fatal(err)
	}
	problems, err := extfs.Fsck(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) == 0 {
		t.Error("disk-only tracking produced a clean volume; expected corruption (§3.2)")
	} else {
		t.Logf("fsck found (expected): %v", problems[0])
	}
}

func TestCRIURefusesFUSEServer(t *testing.T) {
	// Experiment E7 (§5): CRIU refuses processes holding device files;
	// FUSE servers hold /dev/fuse.
	clk := simclock.New()
	srv := fuse.NewServer(verifs2.New(clk), fuse.ServerOptions{})
	tr := NewProcessSnapshot(srv, clk)
	err := tr.Checkpoint(1)
	var devErr *ErrDeviceFilesOpen
	if !errors.As(err, &devErr) {
		t.Fatalf("Checkpoint(fuse server) = %v, want ErrDeviceFilesOpen", err)
	}
	if len(devErr.Devices) != 1 || devErr.Devices[0] != fuse.DeviceFile {
		t.Errorf("devices = %v", devErr.Devices)
	}
}

func TestCRIUSnapshotsNFSServer(t *testing.T) {
	// ...but the user-space NFS server checkpoints fine (§5).
	clk := simclock.New()
	srv := nfssim.New(clk)
	tr := NewProcessSnapshot(srv, clk)

	fh, e := srv.Create(srv.RootFH(), "file", 0644)
	if e != errno.OK {
		t.Fatal(e)
	}
	if _, e := srv.Write(fh, 0, []byte("nfs state A")); e != errno.OK {
		t.Fatal(e)
	}
	if err := tr.Checkpoint(1); err != nil {
		t.Fatalf("Checkpoint(nfs) = %v", err)
	}
	if tr.StateBytes() == 0 {
		t.Error("StateBytes = 0 after checkpoint")
	}
	if _, e := srv.Write(fh, 0, []byte("nfs state B")); e != errno.OK {
		t.Fatal(e)
	}
	if _, e := srv.Mkdir(srv.RootFH(), "newdir", 0755); e != errno.OK {
		t.Fatal(e)
	}
	if err := tr.Restore(1); err != nil {
		t.Fatalf("Restore(nfs) = %v", err)
	}
	data, e := srv.Read(fh, 0, 100)
	if e != errno.OK || string(data) != "nfs state A" {
		t.Errorf("after restore: (%q, %v)", data, e)
	}
	if _, e := srv.Lookup(srv.RootFH(), "newdir"); e != errno.ENOENT {
		t.Errorf("newdir survived restore: %v", e)
	}
}

func TestCheckpointTrackerOnNonCheckpointer(t *testing.T) {
	k, _ := extKernel(t)
	tr := NewCheckpoint(k, "/mnt")
	if err := tr.Checkpoint(1); err == nil {
		t.Error("checkpoint API on ext2 succeeded")
	}
}

func TestTrackerNames(t *testing.T) {
	k, _ := extKernel(t)
	clk := simclock.New()
	names := map[string]Tracker{
		"remount":          NewRemount(k, "/mnt", true),
		"disk-only":        NewDiskOnly(k, "/mnt"),
		"checkpoint-api":   NewCheckpoint(k, "/mnt"),
		"vm-snapshot":      NewVMSnapshot(NewVMGroup(k), NewCheckpoint(k, "/mnt")),
		"process-snapshot": NewProcessSnapshot(nfssim.New(clk), clk),
	}
	for want, tr := range names {
		if tr.Name() != want {
			t.Errorf("Name() = %q, want %q", tr.Name(), want)
		}
	}
}

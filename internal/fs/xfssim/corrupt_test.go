package xfssim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
)

// rootInodeOff is the root inode's byte offset on the device.
const rootInodeOff = inodeTable*BlockSize + (RootIno-1)*InodeSize

// freshDevice formats a volume of the smallest size and returns it
// unmounted.
func freshDevice(tb testing.TB) *blockdev.Disk {
	tb.Helper()
	dev := blockdev.NewRAM("fresh", MinVolumeSize, nil)
	if err := Mkfs(dev); err != nil {
		tb.Fatal(err)
	}
	return dev
}

// mountAndUse mounts dev, reads the root, stats every entry (reading a
// symlink's target) and creates a file. It returns the errors it met, in
// that order, and turns a panic into an error.
func mountAndUse(dev blockdev.Device) (mountErr error, readDir, create errno.Errno, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f, mountErr := Mount(dev, nil)
	if mountErr != nil {
		return mountErr, 0, 0, nil
	}
	ents, readDir := f.ReadDir(f.Root(), nil)
	for _, de := range ents {
		if st, e := f.Getattr(de.Ino); e == errno.OK && st.Mode.IsSymlink() {
			f.Readlink(de.Ino)
		}
	}
	_, create = f.Create(f.Root(), "new", 0644, 0, 0)
	return nil, readDir, create, nil
}

// TestCorruptMetadataIsAnError: a volume head that lies about its
// geometry or its root directory makes Mount fail, or makes the root's
// ReadDir and a Create in it fail — never a panic, never an OK on a
// directory that is not there.
func TestCorruptMetadataIsAnError(t *testing.T) {
	le := binary.LittleEndian
	for _, tc := range []struct {
		name       string
		edit       func(head []byte)
		mountFails bool
	}{
		// readDirStream sized its buffer by the inode's claim.
		{"root size 1<<62", func(h []byte) { le.PutUint64(h[rootInodeOff+16:], 1<<62) }, false},
		{"blocks past the device", func(h []byte) { le.PutUint32(h[4:], MinVolumeSize/BlockSize+1) }, true},
		// The inode table's size wraps around 32 bits.
		{"inodes 0xFFFFFFF9", func(h []byte) { le.PutUint32(h[8:], 0xFFFFFFF9) }, true},
		// The root's one extent, from the first data block, runs past the
		// end of the device.
		{"root extent past the device", func(h []byte) { le.PutUint32(h[rootInodeOff+52:], MinVolumeSize/BlockSize) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := freshDevice(t)
			head := make([]byte, 2*BlockSize)
			if err := dev.ReadAt(head, 0); err != nil {
				t.Fatal(err)
			}
			tc.edit(head)
			if err := dev.WriteAt(head, 0); err != nil {
				t.Fatal(err)
			}
			mountErr, readDir, create, err := mountAndUse(dev)
			switch {
			case err != nil:
				t.Fatal(err)
			case tc.mountFails && mountErr == nil:
				t.Errorf("Mount succeeded, then ReadDir returned %v and Create %v", readDir, create)
			case tc.mountFails:
				t.Logf("Mount: %v", mountErr)
			case mountErr != nil:
				t.Errorf("Mount: %v; want a mount whose root cannot be read", mountErr)
			case readDir == errno.OK || create == errno.OK:
				t.Errorf("root ReadDir returned %v and Create %v, want errors", readDir, create)
			}
		})
	}
}

// TestCorruptSymlinkSizeIsAnError: Symlink stores its target in one
// block, so a symlink inode claiming more reads as EIO, not as a slice
// past the block.
func TestCorruptSymlinkSizeIsAnError(t *testing.T) {
	dev := freshDevice(t)
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	ino, e := f.Symlink("target", f.Root(), "sym", 0, 0)
	if e != errno.OK {
		t.Fatal(e)
	}
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	off := int64(inodeTable*BlockSize + (uint32(ino)-1)*InodeSize + 16)
	size := make([]byte, 8)
	binary.LittleEndian.PutUint64(size, BlockSize+1)
	if err := dev.WriteAt(size, off); err != nil {
		t.Fatal(err)
	}
	if f, err = Mount(dev, nil); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Readlink panicked: %v", r)
			}
		}()
		if target, e := f.Readlink(ino); e != errno.EIO {
			t.Errorf("Readlink = %q, %v; want EIO", target, e)
		}
	}()
}

// FuzzMount: a mount of any bytes over the head of a volume, then a
// ReadDir of its root, a Getattr of every root entry (a Readlink of every
// symlink) and one Create, return errors, never a panic. The input overlays the superblock and the
// inode table of a volume holding a file, a directory, a symlink and a
// hard link; the seeds are that head and the head of a fresh volume.
func FuzzMount(f *testing.F) {
	const head = rootInodeOff + 8*InodeSize
	base := freshDevice(f)
	fresh, err := base.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh[:head])
	fs, err := Mount(base, nil)
	if err != nil {
		f.Fatal(err)
	}
	ino, e := fs.Create(fs.Root(), "file", 0644, 0, 0)
	if e == errno.OK {
		_, e = fs.Write(ino, 0, []byte("xfssim fuzz seed"))
	}
	if e == errno.OK {
		_, e = fs.Mkdir(fs.Root(), "dir", 0755, 0, 0)
	}
	if e == errno.OK {
		_, e = fs.Symlink("file", fs.Root(), "sym", 0, 0)
	}
	if e == errno.OK {
		e = fs.Link(ino, fs.Root(), "hard")
	}
	if e != errno.OK {
		f.Fatalf("building the seed volume: %v", e)
	}
	if err := fs.Unmount(); err != nil {
		f.Fatal(err)
	}
	img, err := base.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img[:head])
	img = bytes.TrimRight(img, "\x00") // a new device reads zeros past it

	f.Fuzz(func(t *testing.T, in []byte) {
		dev := blockdev.NewRAM("fuzz", MinVolumeSize, nil)
		if err := dev.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}
		if err := dev.WriteAt(in[:min(len(in), MinVolumeSize)], 0); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := mountAndUse(dev); err != nil {
			t.Fatal(err)
		}
	})
}

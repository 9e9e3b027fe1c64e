package xfssim

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

type quickOp struct {
	Kind byte
	File byte
	Off  uint16
	Len  uint16
}

var quickNames = []string{"qa", "qb", "qc"}

func applyQuickOp(f *FS, op quickOp) {
	name := quickNames[int(op.File)%len(quickNames)]
	switch op.Kind % 7 {
	case 0:
		f.Create(f.Root(), name, 0644, 0, 0)
	case 1:
		if ino, e := f.Lookup(f.Root(), name); e == errno.OK {
			f.Write(ino, int64(op.Off%16384), make([]byte, int(op.Len%4096)+1))
		}
	case 2:
		if ino, e := f.Lookup(f.Root(), name); e == errno.OK {
			size := int64(op.Off % 8192)
			f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size})
		}
	case 3:
		f.Unlink(f.Root(), name)
	case 4:
		f.Mkdir(f.Root(), name+"d", 0755, 0, 0)
	case 5:
		f.Rmdir(f.Root(), name+"d")
	case 6:
		f.Rename(f.Root(), name, f.Root(), name+"r")
	}
}

func fingerprint(t *testing.T, f *FS) string {
	t.Helper()
	var out bytes.Buffer
	var walk func(ino vfs.Ino, path string)
	walk = func(ino vfs.Ino, path string) {
		st, e := f.Getattr(ino)
		if e != errno.OK {
			t.Fatalf("Getattr(%s): %v", path, e)
		}
		fmt.Fprintf(&out, "%s mode=%o nlink=%d", path, st.Mode, st.Nlink)
		if st.Mode.IsRegular() {
			data, e := f.Read(ino, 0, int(st.Size), nil)
			if e != errno.OK {
				t.Fatalf("Read(%s): %v", path, e)
			}
			fmt.Fprintf(&out, " size=%d data=%x", st.Size, data)
		}
		out.WriteByte('\n')
		if st.Mode.IsDir() {
			ents, e := f.ReadDir(ino, nil)
			if e != errno.OK {
				t.Fatalf("ReadDir(%s): %v", path, e)
			}
			for _, de := range ents {
				if de.Name == "." || de.Name == ".." {
					continue
				}
				walk(de.Ino, path+"/"+de.Name)
			}
		}
	}
	walk(f.Root(), "")
	return out.String()
}

// Property: an unmount/remount cycle preserves the complete observable
// state, including extent maps spanning fragmented allocations.
func TestQuickRemountPreservesState(t *testing.T) {
	prop := func(ops []quickOp) bool {
		clk := simclock.New()
		dev := blockdev.NewRAM("ram0", MinVolumeSize, clk)
		if err := Mkfs(dev); err != nil {
			return false
		}
		f, err := Mount(dev, clk)
		if err != nil {
			return false
		}
		for _, op := range ops {
			applyQuickOp(f, op)
		}
		before := fingerprint(t, f)
		if err := f.Unmount(); err != nil {
			return false
		}
		f2, err := Mount(dev, clk)
		if err != nil {
			return false
		}
		return fingerprint(t, f2) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: free-space accounting is exact — deleting everything returns
// the volume to its freshly formatted free-block count.
func TestQuickFreeSpaceBalanced(t *testing.T) {
	prop := func(ops []quickOp) bool {
		clk := simclock.New()
		dev := blockdev.NewRAM("ram0", MinVolumeSize, clk)
		if err := Mkfs(dev); err != nil {
			return false
		}
		f, err := Mount(dev, clk)
		if err != nil {
			return false
		}
		initial, e := f.StatFS()
		if e != errno.OK {
			return false
		}
		for _, op := range ops {
			applyQuickOp(f, op)
		}
		ents, e := f.ReadDir(f.Root(), nil)
		if e != errno.OK {
			return false
		}
		for _, de := range ents {
			if de.Name == "." || de.Name == ".." {
				continue
			}
			if de.Mode.IsDir() {
				if e := f.Rmdir(f.Root(), de.Name); e != errno.OK {
					return false
				}
			} else {
				if e := f.Unlink(f.Root(), de.Name); e != errno.OK {
					return false
				}
			}
		}
		final, e := f.StatFS()
		if e != errno.OK {
			return false
		}
		return final.FreeBlocks == initial.FreeBlocks && final.FreeInodes == initial.FreeInodes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

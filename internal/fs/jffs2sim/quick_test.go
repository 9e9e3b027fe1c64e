package jffs2sim

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
			f.Write(ino, int64(op.Off%4096), make([]byte, int(op.Len%1024)+1))
		}
	case 2:
		if ino, e := f.Lookup(f.Root(), name); e == errno.OK {
			size := int64(op.Off % 2048)
			f.Setattr(ino, vfs.SetAttr{Size: &size})
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
			data, e := f.Read(ino, 0, int(st.Size))
			if e != errno.OK {
				t.Fatalf("Read(%s): %v", path, e)
			}
			fmt.Fprintf(&out, " size=%d data=%x", st.Size, data)
		}
		if st.Mode.IsSymlink() {
			target, e := f.Readlink(ino)
			if e != errno.OK {
				t.Fatalf("Readlink(%s): %v", path, e)
			}
			fmt.Fprintf(&out, " target=%q", target)
		}
		out.WriteByte('\n')
		if st.Mode.IsDir() {
			ents, e := f.ReadDir(ino)
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

// Property: the mount-time log scan reconstructs the complete observable
// state after any operation sequence — including sequences that trigger
// garbage collection.
func TestQuickScanReconstructsState(t *testing.T) {
	prop := func(ops []quickOp) bool {
		clk := simclock.New()
		mtd := blockdev.NewMTD("mtd0", 256*1024, 8*1024, clk)
		if err := Mkfs(mtd); err != nil {
			return false
		}
		f, err := Mount(mtd, clk)
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
		f2, err := Mount(mtd, clk)
		if err != nil {
			return false
		}
		return fingerprint(t, f2) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the flash invariant holds — the file system only ever
// programs erased regions (blockdev.MTD enforces ErrNotErased, so any
// violation surfaces as EIO and a fingerprint mismatch). GC churn is the
// risky path; force it with heavy rewrites.
func TestQuickGCPreservesState(t *testing.T) {
	prop := func(fills []uint16) bool {
		clk := simclock.New()
		mtd := blockdev.NewMTD("mtd0", 128*1024, 8*1024, clk)
		if err := Mkfs(mtd); err != nil {
			return false
		}
		f, err := Mount(mtd, clk)
		if err != nil {
			return false
		}
		ino, e := f.Create(f.Root(), "churn", 0644, 0, 0)
		if e != errno.OK {
			return false
		}
		var last []byte
		for i, v := range fills {
			data := bytes.Repeat([]byte{byte(v)}, int(v%1500)+1)
			if _, e := f.Write(ino, 0, data); e != errno.OK {
				return false
			}
			if i == len(fills)-1 {
				last = data
			}
		}
		if len(fills) == 0 {
			return true
		}
		got, e := f.Read(ino, 0, len(last))
		if e != errno.OK {
			return false
		}
		if !bytes.Equal(got[:len(last)], last) {
			return false
		}
		// And the state survives a rescan.
		if err := f.Unmount(); err != nil {
			return false
		}
		f2, err := Mount(mtd, clk)
		if err != nil {
			return false
		}
		got2, e := f2.Read(ino, 0, len(last))
		return e == errno.OK && bytes.Equal(got2[:len(last)], last)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

package verifs2

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// quickOp is a generator-friendly encoding of one random operation.
type quickOp struct {
	Kind byte
	File byte
	Off  uint16
	Len  uint16
	Fill byte
}

var quickNames = []string{"qa", "qb", "qc"}

// applyQuickOp drives one random op; errors are expected (invalid
// sequences) and ignored — the properties below concern state, not
// errno.
func applyQuickOp(f *FS, op quickOp) {
	name := quickNames[int(op.File)%len(quickNames)]
	switch op.Kind % 6 {
	case 0:
		f.Create(f.Root(), name, 0644, 0, 0)
	case 1:
		if ino, e := f.Lookup(f.Root(), name); e == errno.OK {
			f.Write(ino, int64(op.Off%8192), make([]byte, int(op.Len%2048)+1))
		}
	case 2:
		if ino, e := f.Lookup(f.Root(), name); e == errno.OK {
			size := int64(op.Off % 4096)
			f.Setattr(ino, vfs.SetAttr{Valid: vfs.AttrSize, Size: size})
		}
	case 3:
		f.Unlink(f.Root(), name)
	case 4:
		f.Mkdir(f.Root(), name+"d", 0755, 0, 0)
	case 5:
		f.Rmdir(f.Root(), name+"d")
	}
}

// treeFingerprint walks the whole tree into a canonical string.
func treeFingerprint(t *testing.T, f *FS) string {
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

// Property: checkpoint -> arbitrary mutations -> restore is the identity
// on the complete observable state.
func TestQuickCheckpointRestoreIdentity(t *testing.T) {
	prop := func(setup, mutations []quickOp) bool {
		f := New(simclock.New())
		for _, op := range setup {
			applyQuickOp(f, op)
		}
		before := treeFingerprint(t, f)
		if e := f.CheckpointState(1); e != errno.OK {
			return false
		}
		for _, op := range mutations {
			applyQuickOp(f, op)
		}
		if e := f.RestoreState(1); e != errno.OK {
			return false
		}
		return treeFingerprint(t, f) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: block accounting never leaks — after deleting everything the
// used-block count returns to zero.
func TestQuickBlockAccountingBalanced(t *testing.T) {
	prop := func(ops []quickOp) bool {
		f := New(simclock.New())
		for _, op := range ops {
			applyQuickOp(f, op)
		}
		// Tear everything down.
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
		st, e := f.StatFS()
		if e != errno.OK {
			return false
		}
		return st.FreeBlocks == st.TotalBlocks
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: reads never expose allocator garbage — every byte outside
// written ranges is zero. Track written ranges in a shadow buffer.
func TestQuickNoGarbageExposure(t *testing.T) {
	type writeOp struct {
		Off uint16
		Len uint16
	}
	prop := func(writes []writeOp) bool {
		f := New(simclock.New())
		ino, e := f.Create(f.Root(), "f", 0644, 0, 0)
		if e != errno.OK {
			return false
		}
		shadow := make([]byte, 1<<16+4096)
		maxEnd := int64(0)
		for i, w := range writes {
			off := int64(w.Off)
			n := int(w.Len%1500) + 1
			data := bytes.Repeat([]byte{byte(i + 1)}, n)
			if _, e := f.Write(ino, off, data); e != errno.OK {
				return false
			}
			copy(shadow[off:], data)
			if off+int64(n) > maxEnd {
				maxEnd = off + int64(n)
			}
		}
		got, e := f.Read(ino, 0, int(maxEnd), nil)
		if e != errno.OK {
			return false
		}
		return bytes.Equal(got, shadow[:maxEnd])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

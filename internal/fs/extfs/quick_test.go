package extfs

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
// state — the invariant the paper's per-operation remount policy rests
// on (§3.2: remounting must not itself change anything).
func TestQuickRemountPreservesState(t *testing.T) {
	run := func(journal bool) func(ops []quickOp) bool {
		return func(ops []quickOp) bool {
			clk := simclock.New()
			dev := blockdev.NewRAM("ram0", 256*1024, clk)
			if err := Mkfs(dev, MkfsOptions{Journal: journal}); err != nil {
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
	}
	if err := quick.Check(run(false), &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("ext2: %v", err)
	}
	if err := quick.Check(run(true), &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("ext4: %v", err)
	}
}

// Property: after any op sequence plus unmount, fsck finds a structurally
// clean volume (no leaked blocks, no dangling entries, consistent nlink).
func TestQuickFsckAlwaysClean(t *testing.T) {
	prop := func(ops []quickOp) bool {
		clk := simclock.New()
		dev := blockdev.NewRAM("ram0", 256*1024, clk)
		if err := Mkfs(dev, MkfsOptions{Journal: true}); err != nil {
			return false
		}
		f, err := Mount(dev, clk)
		if err != nil {
			return false
		}
		for _, op := range ops {
			applyQuickOp(f, op)
		}
		if err := f.Unmount(); err != nil {
			return false
		}
		problems, err := Fsck(dev)
		if err != nil {
			return false
		}
		if len(problems) > 0 {
			t.Logf("fsck problems after %d ops: %v", len(ops), problems)
		}
		return len(problems) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: device snapshot + restore round-trips the full observable
// state, even with a mounted-then-remounted file system (the remount
// tracker's contract).
func TestQuickSnapshotRestoreRoundtrip(t *testing.T) {
	prop := func(setup, mutations []quickOp) bool {
		clk := simclock.New()
		dev := blockdev.NewRAM("ram0", 256*1024, clk)
		if err := Mkfs(dev, MkfsOptions{}); err != nil {
			return false
		}
		f, err := Mount(dev, clk)
		if err != nil {
			return false
		}
		for _, op := range setup {
			applyQuickOp(f, op)
		}
		if e := f.Sync(); e != errno.OK {
			return false
		}
		before := fingerprint(t, f)
		img, err := dev.Snapshot()
		if err != nil {
			return false
		}
		for _, op := range mutations {
			applyQuickOp(f, op)
		}
		if err := f.Unmount(); err != nil {
			return false
		}
		if err := dev.Restore(img); err != nil {
			return false
		}
		f2, err := Mount(dev, clk)
		if err != nil {
			return false
		}
		return fingerprint(t, f2) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

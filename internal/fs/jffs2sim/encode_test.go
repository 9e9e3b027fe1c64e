package jffs2sim

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/vfs"
)

// TestLogBytesArePinned: the nodes an FS appends — inode nodes with and
// without data, split writes, a symlink's target, dirents that add and
// delete, and a garbage collection's rewrite of the whole live state —
// are exactly the bytes this implementation has always programmed. The
// digest pins the node format, the versions and the CRCs, whatever buffer
// the nodes are encoded in.
func TestLogBytesArePinned(t *testing.T) {
	f, mtd, _ := newVolume(t)
	step := func(what string, e errno.Errno) {
		t.Helper()
		if e != errno.OK {
			t.Fatalf("%s: %v", what, e)
		}
	}
	a := mustCreate(t, f, f.Root(), "a")
	_, e := f.Write(a, 0, bytes.Repeat([]byte("ab"), 700)) // three nodes
	step("write a", e)
	d, e := f.Mkdir(f.Root(), "d", 0o755, 0, 0)
	step("mkdir", e)
	_, e = f.Symlink("../a", d, "s", 0, 0)
	step("symlink", e)
	step("rename", f.Rename(f.Root(), "a", d, "b"))
	b := mustCreate(t, f, f.Root(), "churn")
	payload := bytes.Repeat([]byte{0x42}, 1024)
	for i := 0; i < 300; i++ { // enough log traffic to collect
		payload[0] = byte(i)
		_, e = f.Write(b, int64(i%3)*100, payload)
		step(fmt.Sprintf("write %d", i), e)
	}
	step("unlink", f.Unlink(d, "s"))
	size := int64(77)
	step("truncate", f.Setattr(b, vfs.SetAttr{Valid: vfs.AttrSize, Size: size}))
	erases := int64(0)
	for _, n := range mtd.EraseCounts() {
		erases += n
	}
	if erases == 0 {
		t.Fatal("no collection ran")
	}
	img := make([]byte, mtd.Size())
	if err := mtd.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	const want = "2bca49545c0bd5b3919c05ced4805a33"
	if got := fmt.Sprintf("%x", md5.Sum(img)); got != want {
		t.Errorf("the flash after the ops digests to %s, want %s", got, want)
	}
}

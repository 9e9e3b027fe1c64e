package abstraction

import (
	"crypto/md5"
	"slices"
	"strings"
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/vfs"
)

// walkFunc is one way of taking a Snapshot.
type walkFunc func(k *kernel.Kernel, mountPoint string, opts Options) ([]Record, errno.Errno)

// sharedMemo returns a walk whose every call shares one memo and one
// record buffer: the first call over a tree fills them, later ones hit.
// Each call's records are a copy, so a later walk cannot change them.
func sharedMemo() walkFunc {
	m := NewMemo()
	var buf []Record
	return func(k *kernel.Kernel, mountPoint string, opts Options) ([]Record, errno.Errno) {
		var e errno.Errno
		buf, e = m.Snapshot(buf[:0], k, mountPoint, opts)
		return slices.Clone(buf), e
	}
}

// TestContentMemoIsExact: a walk through a warm memo records exactly what a
// cold walk records, field for field, and every file's digest is the MD5
// of the bytes the test wrote. The tree holds an empty file, two
// same-size files with different bytes, a hard-linked pair, a file longer
// than one 64 KiB read and one a byte shorter than two; between walks, a
// file is rewritten in place to the same size and one byte in the big
// file's third read changes.
func TestContentMemoIsExact(t *testing.T) {
	k := kernelWithVeriFS2(t, "/mnt")
	if e := k.Mkdir("/mnt/d", 0755); e != errno.OK {
		t.Fatal(e)
	}
	big := []byte(strings.Repeat("0123456789abcdef", 10<<10)) // 160 KiB: three reads
	want := map[string]string{
		"/empty":   "",
		"/same1":   "abcd",
		"/same2":   "abce",
		"/rewrite": "xxxx",
		"/hl":      "linked",
		"/d/big":   string(big),
		"/d/edge":  strings.Repeat("e", 128<<10-1),
	}
	for path, content := range want {
		writeFile(t, k, "/mnt"+path, content)
	}
	if e := k.Link("/mnt/hl", "/mnt/d/hl2"); e != errno.OK {
		t.Fatal(e)
	}
	want["/d/hl2"] = want["/hl"]

	opts := New()
	walk := sharedMemo()
	check := func(what string) {
		t.Helper()
		cold, e := Snapshot(k, "/mnt", opts)
		if e != errno.OK {
			t.Fatal(e)
		}
		for pass := 0; pass < 2; pass++ {
			warm, e := walk(k, "/mnt", opts)
			if e != errno.OK {
				t.Fatal(e)
			}
			if len(warm) != len(cold) {
				t.Fatalf("%s, pass %d: %d records through the memo, %d without", what, pass, len(warm), len(cold))
			}
			for i := range cold {
				if warm[i] != cold[i] {
					t.Errorf("%s, pass %d: through the memo\n  %+v\nwithout\n  %+v", what, pass, warm[i], cold[i])
				}
			}
		}
		files := 0
		for _, r := range cold {
			if r.Kind != "file" {
				continue
			}
			files++
			content, ok := want[r.Path]
			if !ok {
				t.Fatalf("%s: unexpected file %s", what, r.Path)
			}
			if r.ContentMD5 != md5.Sum([]byte(content)) || r.Size != int64(len(content)) {
				t.Errorf("%s: %s has size %d md5 %x, want %d bytes with md5 %x",
					what, r.Path, r.Size, r.ContentMD5, len(content), md5.Sum([]byte(content)))
			}
		}
		if files != len(want) {
			t.Errorf("%s: %d files walked, want %d", what, files, len(want))
		}
	}
	check("fresh tree")

	overwrite(t, k, "/mnt/rewrite", 0, "yyyy")
	want["/rewrite"] = "yyyy"
	big[130<<10] = '!'
	overwrite(t, k, "/mnt/d/big", 130<<10, "!")
	want["/d/big"] = string(big)
	check("rewritten in place")
}

// TestMemoStartsOverPastItsBound: a memo whose contents would pass
// memoBytes forgets them all and keeps the newcomer.
func TestMemoStartsOverPastItsBound(t *testing.T) {
	m := NewMemo()
	m.sum([]byte("old"))
	m.bytes = memoBytes - 1
	if got := m.sum([]byte("new")); got != md5.Sum([]byte("new")) {
		t.Errorf("sum = %x, want the MD5 of %q", got, "new")
	}
	if _, ok := m.sums["old"]; ok || len(m.sums) != 1 || m.bytes != len("new") {
		t.Errorf("past the bound the memo holds %d contents (old kept: %v) in %d bytes, want only the new one", len(m.sums), ok, m.bytes)
	}
}

// overwrite writes data at off into the existing file at path.
func overwrite(t *testing.T, k *kernel.Kernel, path string, off int64, data string) {
	t.Helper()
	fd, e := k.Open(path, vfs.OWrOnly, 0)
	if e != errno.OK {
		t.Fatalf("Open(%s): %v", path, e)
	}
	if _, e := k.PWriteFD(fd, off, []byte(data)); e != errno.OK {
		t.Fatal(e)
	}
	if e := k.Close(fd); e != errno.OK {
		t.Fatal(e)
	}
}

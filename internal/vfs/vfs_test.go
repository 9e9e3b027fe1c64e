package vfs

import (
	"slices"
	"strings"
	"testing"

	"mcfs/internal/errno"
)

func TestModePredicates(t *testing.T) {
	cases := []struct {
		m                    Mode
		isDir, isReg, isLink bool
	}{
		{ModeDir | 0755, true, false, false},
		{ModeReg | 0644, false, true, false},
		{ModeLink | 0777, false, false, true},
	}
	for _, c := range cases {
		if c.m.IsDir() != c.isDir || c.m.IsRegular() != c.isReg || c.m.IsSymlink() != c.isLink {
			t.Errorf("mode %o predicates = (%v,%v,%v), want (%v,%v,%v)",
				c.m, c.m.IsDir(), c.m.IsRegular(), c.m.IsSymlink(), c.isDir, c.isReg, c.isLink)
		}
	}
	if got := (ModeReg | 0644).Perm(); got != 0644 {
		t.Errorf("Perm = %o, want 0644", got)
	}
}

func TestOpenFlagAccess(t *testing.T) {
	cases := []struct {
		f          OpenFlag
		read, writ bool
	}{
		{ORdOnly, true, false},
		{OWrOnly, false, true},
		{ORdWr, true, true},
		{OWrOnly | OCreate | OTrunc, false, true},
		{ORdOnly | OAppend, true, false},
	}
	for _, c := range cases {
		if c.f.Readable() != c.read || c.f.Writable() != c.writ {
			t.Errorf("flag %x readable/writable = %v/%v, want %v/%v",
				uint32(c.f), c.f.Readable(), c.f.Writable(), c.read, c.writ)
		}
	}
}

func TestValidName(t *testing.T) {
	cases := []struct {
		name string
		want errno.Errno
	}{
		{"file", errno.OK},
		{"", errno.ENOENT},
		{"a/b", errno.EINVAL},
		{"nul\x00byte", errno.EINVAL},
		{strings.Repeat("x", NameMax), errno.OK},
		{strings.Repeat("x", NameMax+1), errno.ENAMETOOLONG},
	}
	for _, c := range cases {
		if got := ValidName(c.name); got != c.want {
			t.Errorf("ValidName(%.20q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// components collects what iterating NextComponent over p yields.
func components(p string) []string {
	var out []string
	for comp, rest := NextComponent(p); comp != ""; comp, rest = NextComponent(rest) {
		out = append(out, comp)
	}
	return out
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"/", nil},
		{"", nil},
		{"/a/b/c", []string{"a", "b", "c"}},
		{"//a///b/", []string{"a", "b"}},
		{"/a/./b", []string{"a", "b"}},
		{"/a/../b", []string{"a", "..", "b"}}, // ".." preserved for the walker
		{"rel/path", []string{"rel", "path"}},
	}
	for _, c := range cases {
		if got := components(c.in); !slices.Equal(got, c.want) {
			t.Errorf("components of %q = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBaseDirJoin(t *testing.T) {
	if got := JoinPath("a", "b/c", "d"); got != "/a/b/c/d" {
		t.Errorf("JoinPath = %q", got)
	}
	if got := JoinPath(); got != "/" {
		t.Errorf("JoinPath() = %q", got)
	}
}

func TestStatFSBytes(t *testing.T) {
	s := StatFS{BlockSize: 1024, TotalBlocks: 256, FreeBlocks: 100}
	if s.TotalBytes() != 256*1024 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
	if s.FreeBytes() != 100*1024 {
		t.Errorf("FreeBytes = %d", s.FreeBytes())
	}
}

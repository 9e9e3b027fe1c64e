package vfs

import (
	"slices"
	"strings"
	"testing"
)

// refSplit and refJoin are the strings.Split-based path functions the
// package shipped with, kept as the reference the fuzz target compares
// the shipped ones against.
func refSplit(p string) []string {
	var out []string
	for _, c := range strings.Split(p, "/") {
		if c == "" || c == "." {
			continue
		}
		out = append(out, c)
	}
	return out
}

func refJoin(parts ...string) string {
	return "/" + strings.Join(refSplit(strings.Join(parts, "/")), "/")
}

// FuzzJoinPath holds NextComponent and JoinPath to their references, and
// JoinPath to the two laws its callers lean on: cleaning is idempotent,
// and joining onto a path is joining onto its clean form.
func FuzzJoinPath(f *testing.F) {
	seeds := []string{"", "/", "//a//b/", "/./a/./", "a/b", "/a/../b", "/a/.", ".", "..", "/.hidden", "/a.b/c."}
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := components(a), refSplit(a); !slices.Equal(got, want) {
			t.Fatalf("iterating NextComponent over %q yields %q, reference %q", a, got, want)
		}
		clean := JoinPath(a)
		if want := refJoin(a); clean != want {
			t.Fatalf("JoinPath(%q) = %q, reference %q", a, clean, want)
		}
		if again := JoinPath(clean); again != clean {
			t.Fatalf("JoinPath(%q) = %q is not a fixed point: cleaned again it is %q", a, clean, again)
		}
		joined := JoinPath(a, b)
		if want := refJoin(a, b); joined != want {
			t.Fatalf("JoinPath(%q, %q) = %q, reference %q", a, b, joined, want)
		}
		if via := JoinPath(clean + "/" + b); joined != via {
			t.Fatalf("JoinPath(%q, %q) = %q, but %q through the clean prefix", a, b, joined, via)
		}
	})
}

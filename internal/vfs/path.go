package vfs

import "strings"

// NextComponent returns the first component of a slash-separated path
// and the unconsumed remainder, skipping empty and "." components; comp
// is "" when none is left. ".." is NOT resolved lexically — the kernel
// resolves it during the walk so that "a/symlink/.." behaves like Linux,
// not like path.Clean. It allocates nothing: both results are substrings
// of p.
func NextComponent(p string) (comp, rest string) {
	for {
		start := 0
		for start < len(p) && p[start] == '/' {
			start++
		}
		end := start
		for end < len(p) && p[end] != '/' {
			end++
		}
		comp, p = p[start:end], p[end:]
		if comp != "." {
			return comp, p
		}
	}
}

// isClean reports whether p is already what JoinPath(p) returns: a
// leading slash, then components that are neither empty nor "."
// separated by single slashes.
func isClean(p string) bool {
	if p == "/" {
		return true
	}
	if p == "" || p[0] != '/' || p[len(p)-1] == '/' {
		return false
	}
	for i := 0; i < len(p)-1; i++ {
		if p[i] != '/' {
			continue
		}
		if p[i+1] == '/' || p[i+1] == '.' && (i+2 == len(p) || p[i+2] == '/') {
			return false
		}
	}
	return true
}

// JoinPath joins path components under root with single slashes. A
// single path that is already clean is returned as it is.
func JoinPath(parts ...string) string {
	if len(parts) == 1 && isClean(parts[0]) {
		return parts[0]
	}
	size := 0
	for _, p := range parts {
		size += 1 + len(p)
	}
	var b strings.Builder
	b.Grow(size)
	for _, p := range parts {
		for comp, rest := NextComponent(p); comp != ""; comp, rest = NextComponent(rest) {
			b.WriteByte('/')
			b.WriteString(comp)
		}
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

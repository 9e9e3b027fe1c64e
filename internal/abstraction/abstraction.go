// Package abstraction implements the paper's abstraction functions
// (Algorithm 1): it converts a file system's concrete state into an
// abstract one — an MD5 hash over the sorted pathnames, file contents,
// and "important" metadata of everything reachable from the mount point.
//
// The abstract state drives two things: visited-state matching in the
// explorer (two concrete states with equal abstract hashes are treated as
// the same logical state, §3.3) and the integrity checker's cross-file-
// system equality assertion (§2). Noisy attributes are deliberately
// omitted (§3.3–3.4):
//
//   - atime/mtime/ctime (they differ between runs and file systems);
//   - physical block locations and block counts;
//   - directory sizes (ext reports block multiples, XFS reports entry
//     bytes);
//   - directory link counts (they encode layout details like lost+found);
//   - anything on the exception list of special files (lost+found).
//
// Directory entries are sorted by name before hashing, because file
// systems return getdents output in different orders.
package abstraction

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
	"strings"

	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/vfs"
)

// State is the 128-bit abstract state (an MD5 hash).
type State [md5.Size]byte

// String renders the state as hex.
func (s State) String() string { return fmt.Sprintf("%x", [md5.Size]byte(s)) }

// Options tunes the abstraction function.
type Options struct {
	// ExceptionList names special files and directories to ignore
	// wherever they appear (§3.4). Defaults to DefaultExceptions when
	// nil-by-construction via New.
	ExceptionList []string
	// IncludeOwnership adds UID/GID to the hashed metadata (on by
	// default in New; some workloads never chown and can skip it).
	IncludeOwnership bool
	// IgnoreContent drops file contents from the abstraction: sizes and
	// link counts still hash, but data bytes are neither read nor
	// compared. The crash-consistency oracle uses this — data writes are
	// legitimately non-atomic on every real file system (only metadata
	// is journaled), so a metadata-only abstract state is what must
	// match a prefix of acknowledged operations after power loss.
	IgnoreContent bool
}

// DefaultExceptions is the exception list from §3.4.
var DefaultExceptions = []string{"lost+found"}

// New returns the default options used throughout MCFS.
func New() Options {
	return Options{ExceptionList: DefaultExceptions, IncludeOwnership: true}
}

func (o Options) excepted(name string) bool {
	for _, x := range o.ExceptionList {
		if name == x {
			return true
		}
	}
	return false
}

// Record is the abstract view of one file, directory, or symlink.
type Record struct {
	// Path is the mount-relative path, "/" for the root.
	Path string
	// Kind is "file", "dir", or "symlink".
	Kind string
	// Perm is the permission bits.
	Perm vfs.Mode
	// Nlink is the link count; only meaningful (and only hashed) for
	// regular files, where hard links are semantic.
	Nlink uint32
	// UID and GID are ownership.
	UID, GID uint32
	// Size is the byte size; zero for directories (ignored, §3.4).
	Size int64
	// ContentMD5 hashes a regular file's full content.
	ContentMD5 [md5.Size]byte
	// Target is a symlink's target.
	Target string
}

// Summary renders a record for discrepancy reports.
func (r Record) Summary() string {
	switch r.Kind {
	case "dir":
		return fmt.Sprintf("dir %s perm=%o uid=%d gid=%d", r.Path, r.Perm, r.UID, r.GID)
	case "symlink":
		return fmt.Sprintf("symlink %s -> %q perm=%o", r.Path, r.Target, r.Perm)
	default:
		return fmt.Sprintf("file %s size=%d nlink=%d perm=%o uid=%d gid=%d md5=%x",
			r.Path, r.Size, r.Nlink, r.Perm, r.UID, r.GID, r.ContentMD5[:4])
	}
}

// Snapshot walks the file system under mountPoint through the kernel's
// syscall interface (open/read/stat/getdents, exactly like Algorithm 1)
// and returns the abstract records sorted by path.
func Snapshot(k *kernel.Kernel, mountPoint string, opts Options) ([]Record, errno.Errno) {
	// The kernel knows mountPoint's clean form: the mount's point plus
	// what is left of the path inside it.
	m, rest, e := k.MountAt(mountPoint)
	if e != errno.OK {
		return nil, e
	}
	w := walker{k: k, opts: opts, mount: m.Point() + rest, md5: md5.New()}
	if w.mount == "/" {
		w.mount = "" // so that mount + "/name" is clean under the root too
	}
	if e := w.visit(w.mount); e != errno.OK {
		return nil, e
	}
	// The walk is depth-first, which is not path order: "/a.b" sorts
	// before "/a/b" but is visited after it.
	slices.SortFunc(w.records, func(x, y Record) int { return strings.Compare(x.Path, y.Path) })
	return w.records, errno.OK
}

// walker is one Snapshot in progress. It lives for that one call: nothing
// it holds outlasts the records it returns.
type walker struct {
	k       *kernel.Kernel
	opts    Options
	mount   string    // clean mount point, "" for "/"
	md5     hash.Hash // reused for every file's content
	records []Record
}

// visit records the node and, for a directory, everything under it. node
// is the mount point followed by the mount-relative path, which is "" for
// the mount's root and "/name[/name...]" below it: one concatenation per
// node, clean by construction, and the record's path is a slice of it.
func (w *walker) visit(node string) errno.Errno {
	full, rel := orRoot(node), orRoot(node[len(w.mount):])
	st, e := w.k.Lstat(full)
	if e != errno.OK {
		return e
	}
	rec := Record{Path: rel, Perm: st.Mode.Perm(), UID: st.UID, GID: st.GID}
	switch {
	case st.Mode.IsDir():
		rec.Kind = "dir"
		entries, e := w.k.GetDents(full)
		if e != errno.OK {
			return e
		}
		names := make([]string, 0, len(entries))
		for _, de := range entries {
			if de.Name == "." || de.Name == ".." || w.opts.excepted(de.Name) {
				continue
			}
			names = append(names, de.Name)
		}
		slices.Sort(names) // §3.4: sort getdents output
		// One growth for the directory and all its entries.
		w.records = append(slices.Grow(w.records, 1+len(names)), rec)
		for _, name := range names {
			if e := w.visit(node + "/" + name); e != errno.OK {
				return e
			}
		}
	case st.Mode.IsSymlink():
		rec.Kind = "symlink"
		target, e := w.k.Readlink(full)
		if e != errno.OK {
			return e
		}
		rec.Target = target
		rec.Size = st.Size
		w.records = append(w.records, rec)
	default:
		rec.Kind = "file"
		rec.Size = st.Size
		rec.Nlink = st.Nlink
		w.records = append(w.records, rec)
		if !w.opts.IgnoreContent {
			// Summed into the stored record: a local handed to the hash
			// interface would be moved to the heap first.
			return w.hashFileContent(full, &w.records[len(w.records)-1].ContentMD5)
		}
	}
	return errno.OK
}

// orRoot spells the empty path "/".
func orRoot(p string) string {
	if p == "" {
		return "/"
	}
	return p
}

// hashFileContent opens, fully reads, and closes the file, hashing its
// content into sum (Algorithm 1, lines 7-10).
func (w *walker) hashFileContent(path string, sum *[md5.Size]byte) errno.Errno {
	fd, e := w.k.Open(path, vfs.ORdOnly, 0)
	if e != errno.OK {
		return e
	}
	defer w.k.Close(fd)
	w.md5.Reset()
	const chunk = 64 * 1024
	for {
		data, e := w.k.ReadFD(fd, chunk)
		if e != errno.OK {
			return e
		}
		if len(data) == 0 {
			break
		}
		w.md5.Write(data)
	}
	w.md5.Sum(sum[:0])
	return errno.OK
}

// HashRecords folds a sorted record list into the 128-bit abstract state
// (Algorithm 1, lines 6-15).
func HashRecords(records []Record, opts Options) State {
	h := md5.New()
	buf := make([]byte, 0, 128) // one record's serialisation, reused for the next
	for i := range records {
		r := &records[i]
		buf = append(buf[:0], r.Path...)
		buf = append(buf, 0)
		buf = append(buf, r.Kind...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Perm))
		if opts.IncludeOwnership {
			buf = binary.LittleEndian.AppendUint32(buf, r.UID)
			buf = binary.LittleEndian.AppendUint32(buf, r.GID)
		}
		switch r.Kind {
		case "file":
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Size))
			buf = binary.LittleEndian.AppendUint32(buf, r.Nlink)
			if !opts.IgnoreContent {
				buf = append(buf, r.ContentMD5[:]...)
			}
		case "symlink":
			buf = append(buf, r.Target...)
			buf = append(buf, 0)
		case "dir":
			// Directory sizes and link counts are ignored (§3.4).
		}
		h.Write(buf)
	}
	var s State
	h.Sum(s[:0])
	return s
}

// Hash runs Snapshot and HashRecords in one step: the full Algorithm 1.
func Hash(k *kernel.Kernel, mountPoint string, opts Options) (State, errno.Errno) {
	records, e := Snapshot(k, mountPoint, opts)
	if e != errno.OK {
		return State{}, e
	}
	return HashRecords(records, opts), errno.OK
}

// Diff compares two sorted record lists and returns human-readable
// discrepancies; empty means the abstract states agree. Paths present in
// only one list, or records differing in hashed attributes, are reported.
func Diff(a, b []Record, opts Options) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Path < b[j].Path:
			out = append(out, fmt.Sprintf("only in first: %s", a[i].Summary()))
			i++
		case a[i].Path > b[j].Path:
			out = append(out, fmt.Sprintf("only in second: %s", b[j].Summary()))
			j++
		default:
			if d := recordDiff(&a[i], &b[j], opts); d != "" {
				out = append(out, d)
			}
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		out = append(out, fmt.Sprintf("only in first: %s", a[i].Summary()))
	}
	for ; j < len(b); j++ {
		out = append(out, fmt.Sprintf("only in second: %s", b[j].Summary()))
	}
	return out
}

func recordDiff(x, y *Record, opts Options) string {
	var diffs []string
	if x.Kind != y.Kind {
		diffs = append(diffs, fmt.Sprintf("kind %s vs %s", x.Kind, y.Kind))
	}
	if x.Perm != y.Perm {
		diffs = append(diffs, fmt.Sprintf("perm %o vs %o", x.Perm, y.Perm))
	}
	if opts.IncludeOwnership && (x.UID != y.UID || x.GID != y.GID) {
		diffs = append(diffs, fmt.Sprintf("owner %d:%d vs %d:%d", x.UID, x.GID, y.UID, y.GID))
	}
	if x.Kind == "file" && y.Kind == "file" {
		if x.Size != y.Size {
			diffs = append(diffs, fmt.Sprintf("size %d vs %d", x.Size, y.Size))
		}
		if x.Nlink != y.Nlink {
			diffs = append(diffs, fmt.Sprintf("nlink %d vs %d", x.Nlink, y.Nlink))
		}
		if !opts.IgnoreContent && x.ContentMD5 != y.ContentMD5 {
			diffs = append(diffs, fmt.Sprintf("content md5 %x vs %x", x.ContentMD5[:4], y.ContentMD5[:4]))
		}
	}
	if x.Kind == "symlink" && y.Kind == "symlink" && x.Target != y.Target {
		diffs = append(diffs, fmt.Sprintf("target %q vs %q", x.Target, y.Target))
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprintf("%s: %s", x.Path, strings.Join(diffs, ", "))
}

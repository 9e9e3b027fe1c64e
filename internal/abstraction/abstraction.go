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
	return Options{ExceptionList: DefaultExceptions}
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

// Memo is the memory an owner's walks share. It maps file contents to
// their MD5s, keyed by the content itself: a hit means the bytes are
// equal, so a walk through a memo records exactly what a walk without one
// records, and trusts the target for nothing. Every syscall still
// happens, in the same order, and MD5 carries no virtual charge, so a
// memo moves wall time only. It also holds the walk's working memory —
// its read buffer, listing buffer, names stack and the table its paths
// are interned in — so a walk over names it has seen allocates nothing.
// An engine keeps one per run; a nil Memo remembers nothing, and each of
// its walks works in fresh memory. A Memo is not safe for concurrent use.
type Memo struct {
	sums  map[string][md5.Size]byte
	bytes int    // content held as keys
	buf   []byte // the read buffer its walks reuse

	ents  []vfs.DirEntry // the listing being read, reused by every directory
	names []string       // a stack of directories' sorted children
	path  []byte         // the child path being built
	// paths interns the walk's paths, each key its own value, so a path is
	// one string however often it is walked. nil: no interning.
	paths     map[string]string
	pathBytes int // path bytes held as keys
}

// memoBytes bounds the content a Memo holds: past it, the memo starts
// over. The whole depth-4 to depth-6 VeriFS spaces hold 20 distinct
// contents, 54 KB; a custom pool may hold far more.
const memoBytes = 64 << 20

// memoPathBytes bounds the paths a Memo interns: past it, the table
// starts over, as the contents do past memoBytes.
const memoPathBytes = 1 << 20

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{sums: make(map[string][md5.Size]byte), paths: make(map[string]string)}
}

// sum returns data's MD5, computing it only for content m has not seen.
func (m *Memo) sum(data []byte) [md5.Size]byte {
	if m.sums == nil {
		return md5.Sum(data)
	}
	if s, ok := m.sums[string(data)]; ok {
		return s
	}
	s := md5.Sum(data)
	if m.bytes += len(data); m.bytes > memoBytes {
		clear(m.sums)
		m.bytes = len(data)
	}
	m.sums[string(data)] = s
	return s
}

// intern returns p as a string, from the path table when it holds it.
func (m *Memo) intern(p []byte) string {
	if m.paths == nil {
		return string(p)
	}
	if s, ok := m.paths[string(p)]; ok {
		return s
	}
	if m.pathBytes += len(p); m.pathBytes > memoPathBytes {
		clear(m.paths)
		m.pathBytes = len(p)
	}
	s := string(p)
	m.paths[s] = s
	return s
}

// Snapshot walks the file system under mountPoint through the kernel's
// syscall interface (open/read/stat/getdents, exactly like Algorithm 1)
// and returns the abstract records sorted by path, in fresh memory.
func Snapshot(k *kernel.Kernel, mountPoint string, opts Options) ([]Record, errno.Errno) {
	return (*Memo)(nil).Snapshot(nil, k, mountPoint, opts)
}

// Snapshot is the package's Snapshot, in m's memory: it appends the
// records, sorted by path, to dst and returns the extended slice, which
// on error has dst's length. File contents are hashed through m. A
// caller that passes the same buffer back, truncated, walks a tree whose
// names m has seen without allocating.
func (m *Memo) Snapshot(dst []Record, k *kernel.Kernel, mountPoint string, opts Options) ([]Record, errno.Errno) {
	if m == nil {
		m = new(Memo)
	}
	// The kernel knows mountPoint's clean form: the mount's point plus
	// what is left of the path inside it.
	mnt, rest, e := k.MountAt(mountPoint)
	if e != errno.OK {
		return dst, e
	}
	m.path = append(append(m.path[:0], mnt.Point()...), rest...)
	if string(m.path) == "/" {
		m.path = m.path[:0] // so that mount + "/name" is clean under the root too
	}
	w := walker{k: k, opts: opts, mount: len(m.path), memo: m, records: dst}
	e = w.visit(m.intern(m.path))
	if e != errno.OK {
		return dst, e
	}
	// The walk is depth-first, which is not path order: "/a.b" sorts
	// before "/a/b" but is visited after it.
	slices.SortFunc(w.records[len(dst):], func(x, y Record) int { return strings.Compare(x.Path, y.Path) })
	return w.records, errno.OK
}

// walker is one Snapshot in progress. What it holds lives in its memo or
// in the records it returns.
type walker struct {
	k       *kernel.Kernel
	opts    Options
	mount   int // length of the clean mount point, 0 for "/"
	memo    *Memo
	records []Record
}

// visit records the node and, for a directory, everything under it. node
// is the mount point followed by the mount-relative path, which is "" for
// the mount's root and "/name[/name...]" below it: one interned string
// per node, clean by construction, and the record's path is a slice of
// it. A directory reads its listing out of the memo's listing buffer and
// pushes its sorted children on the names stack before it visits any of
// them, and pops them after.
func (w *walker) visit(node string) errno.Errno {
	m := w.memo
	full, rel := orRoot(node), orRoot(node[w.mount:])
	st, e := w.k.Lstat(full)
	if e != errno.OK {
		return e
	}
	rec := Record{Path: rel, Perm: st.Mode.Perm(), UID: st.UID, GID: st.GID}
	switch {
	case st.Mode.IsDir():
		rec.Kind = "dir"
		m.ents, e = w.k.GetDents(full, m.ents[:0])
		if e != errno.OK {
			return e
		}
		start := len(m.names)
		for _, de := range m.ents {
			if de.Name == "." || de.Name == ".." || w.opts.excepted(de.Name) {
				continue
			}
			m.names = append(m.names, de.Name)
		}
		end := len(m.names)
		slices.Sort(m.names[start:end]) // §3.4: sort getdents output
		// One growth for the directory and all its entries.
		w.records = append(slices.Grow(w.records, 1+end-start), rec)
		for i := start; i < end; i++ {
			m.path = append(append(append(m.path[:0], node...), '/'), m.names[i]...)
			if e = w.visit(m.intern(m.path)); e != errno.OK {
				break
			}
		}
		m.names = m.names[:start]
		return e
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
// content into sum (Algorithm 1, lines 7-10). The reads append to the
// memo's read buffer from length zero: one buffer serves every file.
func (w *walker) hashFileContent(path string, sum *[md5.Size]byte) errno.Errno {
	fd, e := w.k.Open(path, vfs.ORdOnly, 0)
	if e != errno.OK {
		return e
	}
	defer w.k.Close(fd)
	const chunk = 64 * 1024
	content := w.memo.buf[:0]
	for {
		n := len(content)
		if content, e = w.k.ReadFD(fd, chunk, content); e != errno.OK {
			return e
		}
		if len(content) == n {
			break
		}
	}
	w.memo.buf = content // kept at the size the walk grew it to
	*sum = w.memo.sum(content)
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
		buf = binary.LittleEndian.AppendUint32(buf, r.UID)
		buf = binary.LittleEndian.AppendUint32(buf, r.GID)
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
	return (*Memo)(nil).Hash(k, mountPoint, opts)
}

// Hash is the package's Hash, with file contents hashed through m.
func (m *Memo) Hash(k *kernel.Kernel, mountPoint string, opts Options) (State, errno.Errno) {
	records, e := m.Snapshot(nil, k, mountPoint, opts)
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
	if x.UID != y.UID || x.GID != y.GID {
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

// Package workload defines the bounded operation and parameter pools the
// MCFS syscall engine explores, and executes operations against a target
// file system through the kernel's syscall interface.
//
// Following §4, syscalls that depend on kernel state (open file
// descriptors) are wrapped in meta-operations so that every explored
// operation is self-contained: create_file creates and closes a file;
// write_file opens, writes, and closes. Operations that can run alone
// (truncate, mkdir, ...) are issued directly. Parameters come from small
// bounded pools, so the state space — while large — is guaranteed finite.
// The engine deliberately issues invalid sequences too (e.g. unlink of a
// missing file): error paths are where bugs lurk, and consistent errno
// behavior across file systems is part of the checked contract.
package workload

import (
	"fmt"

	"mcfs/internal/checker"
	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/vfs"
)

// OpKind enumerates the operation set.
type OpKind int

// The operation kinds. CreateFile and WriteFile are the §4
// meta-operations; the rest map to single syscalls.
const (
	OpCreateFile OpKind = iota
	OpWriteFile
	OpTruncate
	OpMkdir
	OpRmdir
	OpUnlink
	OpRename
	OpLink
	OpSymlink
	OpChmod
	OpRead
	numOpKinds
)

var opNames = [...]string{
	OpCreateFile: "create_file",
	OpWriteFile:  "write_file",
	OpTruncate:   "truncate",
	OpMkdir:      "mkdir",
	OpRmdir:      "rmdir",
	OpUnlink:     "unlink",
	OpRename:     "rename",
	OpLink:       "link",
	OpSymlink:    "symlink",
	OpChmod:      "chmod",
	OpRead:       "read_file",
}

// String returns the operation name.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// KindFromString maps an operation name back to its OpKind — the
// inverse of OpKind.String, used when decoding journaled operations.
func KindFromString(name string) (OpKind, bool) {
	for k, n := range opNames {
		if n == name {
			return OpKind(k), true
		}
	}
	return 0, false
}

// Op is one fully parameterized operation, expressed against
// mount-relative paths.
type Op struct {
	Kind  OpKind
	Path  string // primary operand
	Path2 string // rename/link destination, symlink target
	Off   int64  // write offset
	Size  int64  // write length or truncate size
	Byte  byte   // fill byte for writes
	Mode  vfs.Mode
}

// String renders the op for trails and logs.
func (o Op) String() string {
	switch o.Kind {
	case OpWriteFile:
		return fmt.Sprintf("write_file(%s, off=%d, len=%d, byte=%#x)", o.Path, o.Off, o.Size, o.Byte)
	case OpTruncate:
		return fmt.Sprintf("truncate(%s, %d)", o.Path, o.Size)
	case OpRename:
		return fmt.Sprintf("rename(%s, %s)", o.Path, o.Path2)
	case OpLink:
		return fmt.Sprintf("link(%s, %s)", o.Path, o.Path2)
	case OpSymlink:
		return fmt.Sprintf("symlink(%s, %s)", o.Path2, o.Path)
	case OpChmod:
		return fmt.Sprintf("chmod(%s, %o)", o.Path, o.Mode)
	default:
		return fmt.Sprintf("%s(%s)", o.Kind, o.Path)
	}
}

// Pool is the bounded parameter space.
type Pool struct {
	// Files are candidate file paths (mount-relative).
	Files []string
	// Dirs are candidate directory paths.
	Dirs []string
	// WriteOffsets and WriteSizes parameterize write_file.
	WriteOffsets []int64
	WriteSizes   []int64
	// TruncateSizes parameterizes truncate.
	TruncateSizes []int64
	// Modes parameterizes chmod.
	Modes []vfs.Mode
	// Ops enables a subset of operations; nil means all.
	Ops []OpKind
}

// DefaultPool is a small pool exercising files in the root and one
// subdirectory, matching the scale of the paper's bounded exploration.
func DefaultPool() Pool {
	return Pool{
		Files:         []string{"/f0", "/f1", "/d0/f2"},
		Dirs:          []string{"/d0", "/d1"},
		WriteOffsets:  []int64{0, 1000},
		WriteSizes:    []int64{1, 4096},
		TruncateSizes: []int64{0, 2048},
		Modes:         []vfs.Mode{0644, 0600},
	}
}

// VeriFS1Pool restricts DefaultPool to the operations VeriFS1 supports
// (no rename, links, or symlinks, §5).
func VeriFS1Pool() Pool {
	p := DefaultPool()
	p.Ops = []OpKind{OpCreateFile, OpWriteFile, OpTruncate, OpMkdir, OpRmdir, OpUnlink, OpChmod, OpRead}
	return p
}

func (p Pool) enabled(k OpKind) bool {
	if p.Ops == nil {
		return true
	}
	for _, o := range p.Ops {
		if o == k {
			return true
		}
	}
	return false
}

// Enumerate expands the pool into the complete bounded operation list —
// the entries of the model's nondeterministic do..od loop.
func (p Pool) Enumerate() []Op {
	var ops []Op
	add := func(o Op) {
		if p.enabled(o.Kind) {
			ops = append(ops, o)
		}
	}
	fillBytes := []byte{0xAA, 0x55}
	for _, f := range p.Files {
		add(Op{Kind: OpCreateFile, Path: f, Mode: 0644})
		add(Op{Kind: OpUnlink, Path: f})
		add(Op{Kind: OpRead, Path: f})
		for i, off := range p.WriteOffsets {
			for _, size := range p.WriteSizes {
				add(Op{Kind: OpWriteFile, Path: f, Off: off, Size: size, Byte: fillBytes[i%len(fillBytes)]})
			}
		}
		for _, size := range p.TruncateSizes {
			add(Op{Kind: OpTruncate, Path: f, Size: size})
		}
		for _, mode := range p.Modes {
			add(Op{Kind: OpChmod, Path: f, Mode: mode})
		}
	}
	for _, d := range p.Dirs {
		add(Op{Kind: OpMkdir, Path: d, Mode: 0755})
		add(Op{Kind: OpRmdir, Path: d})
	}
	// Pairwise namespace operations.
	for i, src := range p.Files {
		for j, dst := range p.Files {
			if i == j {
				continue
			}
			add(Op{Kind: OpRename, Path: src, Path2: dst})
			add(Op{Kind: OpLink, Path: src, Path2: dst})
		}
	}
	for _, f := range p.Files {
		add(Op{Kind: OpSymlink, Path: f + ".sym", Path2: f})
	}
	return ops
}

// Execute runs op against the file system mounted at mountPoint,
// returning the observable outcome for the checker. Meta-operations
// return the errno of the first failing constituent syscall.
func Execute(k *kernel.Kernel, mountPoint string, op Op) checker.OpResult {
	return ExecuteAt(k, op, At(mountPoint, op), Fill(op), nil)
}

// Fill returns the bytes a write op writes: Size copies of Byte. Nil for
// any other op.
func Fill(op Op) []byte {
	if op.Kind != OpWriteFile {
		return nil
	}
	data := make([]byte, op.Size)
	for i := range data {
		data[i] = op.Byte
	}
	return data
}

// Paths is an op's operands as paths under one mount point. Path is always
// prefixed; Path2 only where it names a file (rename and link), since a
// symlink's target is stored as written.
type Paths struct{ Path, Path2 string }

// At returns op's operands under mountPoint.
func At(mountPoint string, op Op) Paths {
	p := Paths{Path: mountPoint + op.Path}
	if op.Kind == OpRename || op.Kind == OpLink {
		p.Path2 = mountPoint + op.Path2
	}
	return p
}

// ExecuteAt is Execute for a caller that keeps op's operands under the
// mount point (At), a write's bytes (Fill) and a buffer for what a
// read_file reads, building no path or buffer of its own. A write neither
// keeps nor changes data (vfs.FS.Write), so the caller may share one
// buffer among targets and ops. A read_file reads into dst's memory from
// its start, so the result's Data is dst's array when it fits; a nil dst
// gives the result memory of its own.
func ExecuteAt(k *kernel.Kernel, op Op, at Paths, data, dst []byte) checker.OpResult {
	path := at.Path
	switch op.Kind {
	case OpCreateFile:
		// create_file: open(O_CREAT|O_EXCL) then close (§4).
		fd, e := k.Open(path, vfs.OCreate|vfs.OExcl|vfs.OWrOnly, op.Mode)
		if e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		if e := k.Close(fd); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpWriteFile:
		// write_file: open, pwrite, close (§4).
		fd, e := k.Open(path, vfs.OWrOnly, 0)
		if e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		n, e := k.PWriteFD(fd, op.Off, data)
		if e != errno.OK {
			_ = k.Close(fd) // the write's errno is the result; close is cleanup
			return checker.OpResult{Ret: -1, Err: e}
		}
		if e := k.Close(fd); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{Ret: int64(n)}
	case OpRead:
		// read_file: open, read everything, close; the data feeds the
		// checker's data comparison.
		fd, e := k.Open(path, vfs.ORdOnly, 0)
		if e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		data, e := k.ReadFD(fd, 1<<20, dst[:0])
		if e != errno.OK {
			_ = k.Close(fd) // the read's errno is the result; close is cleanup
			return checker.OpResult{Ret: -1, Err: e}
		}
		if e := k.Close(fd); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{Ret: int64(len(data)), Data: data}
	case OpTruncate:
		if e := k.Truncate(path, op.Size); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpMkdir:
		if e := k.Mkdir(path, op.Mode); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpRmdir:
		if e := k.Rmdir(path); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpUnlink:
		if e := k.Unlink(path); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpRename:
		if e := k.Rename(path, at.Path2); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpLink:
		if e := k.Link(path, at.Path2); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpSymlink:
		if e := k.Symlink(op.Path2, path); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	case OpChmod:
		if e := k.Chmod(path, op.Mode); e != errno.OK {
			return checker.OpResult{Ret: -1, Err: e}
		}
		return checker.OpResult{}
	}
	return checker.OpResult{Ret: -1, Err: errno.ENOSYS}
}

// TrailString renders an operation sequence, one per line, the way MCFS
// logs the precise sequence that led to a problem (§2).
func TrailString(trail []Op) string {
	out := ""
	for i, op := range trail {
		out += fmt.Sprintf("%3d. %s\n", i+1, op)
	}
	return out
}

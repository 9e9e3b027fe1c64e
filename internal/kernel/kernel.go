// Package kernel simulates the operating system kernel that sits between
// the MCFS driver and the file systems under test.
//
// It provides the pieces of a real kernel that the paper's challenges
// revolve around (§3):
//
//   - a mount table with mount, unmount, and remount;
//   - a dentry cache (positive and negative entries) and an inode
//     attribute cache in front of every mount — the in-memory state that
//     goes stale when a model checker restores persistent state without
//     remounting (§3.2), and the cache a FUSE file system must explicitly
//     invalidate after restoring its own state (§6's second VeriFS1 bug);
//   - a file-descriptor table, so open/read/write/close sequences behave
//     like real syscalls;
//   - syscall entry points returning POSIX errnos, used verbatim by the
//     checker for cross-file-system comparison.
//
// Operations are serialized by the caller (the explorer is single-driver
// per kernel instance), matching the paper's one-syscall-at-a-time
// exploration.
package kernel

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// syscallCost is the fixed CPU cost charged per syscall entry.
const syscallCost = 8 * time.Microsecond

// MaxSymlinkDepth bounds symlink resolution, like Linux's ELOOP limit.
const MaxSymlinkDepth = 8

// FilesystemSpec tells the kernel how to mount (and remount) a file
// system instance.
type FilesystemSpec struct {
	// Type is the fs type name used in logs ("ext2", "verifs1", ...).
	Type string
	// Dev is the backing device; nil for in-memory file systems.
	Dev blockdev.Device
	// Mounter creates or loads the FS instance. For device-backed file
	// systems it is called again on every remount, reconstructing all
	// in-memory state from the device.
	Mounter func() (vfs.FS, error)
	// Unmounter flushes and detaches an instance; nil means no work.
	Unmounter func(vfs.FS) error
}

// CacheInvalidator lets a file system (via the FUSE notify API) evict
// kernel cache entries it knows are stale. The paper's VeriFS calls
// fuse_lowlevel_notify_inval_entry / _inval_inode per entry; a restore
// stales everything at once, so the one form here is the whole mount.
type CacheInvalidator interface {
	// InvalAll evicts every cached dentry and attribute of the mount.
	InvalAll()
}

// InvalidatorBinder is implemented by file systems (the FUSE client
// adapter) that need a channel back into the kernel caches.
type InvalidatorBinder interface {
	BindCacheInvalidator(ci CacheInvalidator)
}

type dkey struct {
	parent vfs.Ino
	name   string
}

// Mount is one mounted file system.
type Mount struct {
	point string
	spec  FilesystemSpec
	fs    vfs.FS
	sync  bool // mount -o sync: flush after every operation

	dcache   map[dkey]vfs.Ino // positive dentries
	negcache map[dkey]bool    // negative dentries
	acache   map[vfs.Ino]vfs.Stat

	// cache statistics, for tests and the performance model
	dcacheHits, dcacheMisses int64
}

// FS exposes the mounted file system instance (tests and trackers use it).
func (m *Mount) FS() vfs.FS { return m.fs }

// Point returns the mount point path.
func (m *Mount) Point() string { return m.point }

// Type returns the file system type name.
func (m *Mount) Type() string { return m.spec.Type }

// Dev returns the backing device (nil for in-memory file systems).
func (m *Mount) Dev() blockdev.Device { return m.spec.Dev }

// CacheStats reports dentry-cache hits and misses since mount.
func (m *Mount) CacheStats() (hits, misses int64) { return m.dcacheHits, m.dcacheMisses }

// Spec returns the filesystem spec the mount was created with, so
// trackers can remount it.
func (m *Mount) Spec() FilesystemSpec { return m.spec }

// Options returns the mount options.
func (m *Mount) Options() MountOptions { return MountOptions{Sync: m.sync} }

// mountInvalidator implements CacheInvalidator for one mount.
type mountInvalidator struct{ m *Mount }

func (mi mountInvalidator) InvalAll() {
	mi.m.dcache = make(map[dkey]vfs.Ino)
	mi.m.negcache = make(map[dkey]bool)
	mi.m.acache = make(map[vfs.Ino]vfs.Stat)
}

// FD is a file descriptor.
type FD int

type openFile struct {
	mount *Mount
	ino   vfs.Ino
	flags vfs.OpenFlag
	pos   int64
}

// Kernel is one simulated kernel instance. A model-checking run uses one
// kernel with every file system under test mounted side by side.
type Kernel struct {
	clock  *simclock.Clock
	mounts []*Mount // sorted by mount point; a handful at most
	fds    map[FD]*openFile
	nextFD FD

	syscalls int64

	// Observability handles, nil unless SetObs was called: every
	// syscall entry opens a LayerKernel span and bumps the syscall
	// counter; Remount records its latency histogram.
	obsHub      *obs.Hub
	ctrSyscalls *obs.Counter
	histRemount *obs.Histogram

	// UID/GID the driver "process" runs as; MCFS runs as root.
	UID, GID uint32
}

// New returns a kernel with an empty mount table.
func New(clock *simclock.Clock) *Kernel {
	return &Kernel{
		clock:  clock,
		fds:    make(map[FD]*openFile),
		nextFD: 3, // 0,1,2 taken, as ever
	}
}

// Clock returns the kernel's virtual clock.
func (k *Kernel) Clock() *simclock.Clock { return k.clock }

// SetObs attaches an observability hub. Passing nil detaches it; all
// instrumentation is nil-safe either way.
func (k *Kernel) SetObs(h *obs.Hub) {
	k.obsHub = h
	k.ctrSyscalls = h.Counter(obs.MetricSyscalls)
	k.histRemount = h.Histogram(obs.MetricRemount)
}

func (k *Kernel) charge() {
	k.syscalls++
	k.ctrSyscalls.Inc()
	if k.clock != nil {
		k.clock.Advance(syscallCost)
	}
}

// begin opens the named syscall's kernel span and charges the entry
// cost. Syscall entry points use `defer k.begin("open").End()`: the
// span opens before the CPU charge, so even a no-op syscall has a
// non-zero virtual duration.
func (k *Kernel) begin(name string) obs.SpanHandle {
	sp := k.obsHub.StartSpan(obs.LayerKernel, name)
	k.charge()
	return sp
}

// SyscallCount reports the number of syscalls served since boot; the
// paper's soak experiment counts syscalls, not driver operations ("159
// million syscalls", §5).
func (k *Kernel) SyscallCount() int64 { return k.syscalls }

// MountOptions configures a mount.
type MountOptions struct {
	// Sync flushes the file system after every mutating operation
	// (mount -o sync). The paper tried this to fight cache incoherency;
	// it guarantees flushes but not cache reloads (§3.2).
	Sync bool
}

// Mount attaches a file system at the given mount point.
func (k *Kernel) Mount(point string, spec FilesystemSpec, opts MountOptions) error {
	point = vfs.JoinPath(point)
	at, ok := k.mountIndex(point)
	if ok {
		return fmt.Errorf("kernel: %s already mounted", point)
	}
	fs, err := spec.Mounter()
	if err != nil {
		return fmt.Errorf("kernel: mounting %s at %s: %w", spec.Type, point, err)
	}
	m := &Mount{
		point:    point,
		spec:     spec,
		fs:       fs,
		sync:     opts.Sync,
		dcache:   make(map[dkey]vfs.Ino),
		negcache: make(map[dkey]bool),
		acache:   make(map[vfs.Ino]vfs.Stat),
	}
	if b, ok := fs.(InvalidatorBinder); ok {
		b.BindCacheInvalidator(mountInvalidator{m})
	}
	k.mounts = slices.Insert(k.mounts, at, m)
	return nil
}

// mountIndex finds the mount at exactly point (a clean path), or the
// index at which a mount there would keep the table sorted.
func (k *Kernel) mountIndex(point string) (int, bool) {
	return slices.BinarySearchFunc(k.mounts, point, func(m *Mount, point string) int {
		return strings.Compare(m.point, point)
	})
}

// mountedAt returns the mount at exactly point.
func (k *Kernel) mountedAt(point string) (*Mount, error) {
	point = vfs.JoinPath(point)
	i, ok := k.mountIndex(point)
	if !ok {
		return nil, fmt.Errorf("kernel: %s not mounted", point)
	}
	return k.mounts[i], nil
}

// Unmount detaches the file system at point, flushing it first. It fails
// with EBUSY while any file descriptor on the mount is open.
func (k *Kernel) Unmount(point string) error {
	m, err := k.mountedAt(point)
	if err != nil {
		return err
	}
	for _, of := range k.fds {
		if of.mount == m {
			return errno.EBUSY
		}
	}
	if m.spec.Unmounter != nil {
		if err := m.spec.Unmounter(m.fs); err != nil {
			return err
		}
	}
	k.dropMount(m)
	return nil
}

func (k *Kernel) dropMount(m *Mount) {
	k.mounts = slices.DeleteFunc(k.mounts, func(x *Mount) bool { return x == m })
}

// Remount unmounts and immediately remounts a file system, rebuilding all
// in-memory state from the backing device. This is the paper's
// cache-coherency hammer (§3.2): the only way to guarantee no stale state
// remains in kernel memory.
func (k *Kernel) Remount(point string) error {
	defer k.obsHub.StartTimed(obs.LayerKernel, "remount", k.histRemount).End()
	return k.remount(point)
}

func (k *Kernel) remount(point string) error {
	m, err := k.mountedAt(point)
	if err != nil {
		return err
	}
	spec := m.spec
	opts := MountOptions{Sync: m.sync}
	if err := k.Unmount(point); err != nil {
		return err
	}
	return k.Mount(point, spec, opts)
}

// CrashRemount simulates power loss at point: every open file descriptor
// and all in-memory mount state (file system instance, dentry/attribute
// caches) are discarded WITHOUT any flush — no Unmounter runs, because a
// power cut does not get to write back dirty state. powerCut then runs
// with the mount gone (it installs the surviving media image on the
// backing device), and the file system is mounted fresh from that image,
// which is where its recovery (journal replay, log scan) executes. A
// mount failure leaves the mount point empty — recovery failed.
func (k *Kernel) CrashRemount(point string, powerCut func() error) error {
	defer k.begin("crash-remount").End()
	m, err := k.mountedAt(point)
	if err != nil {
		return err
	}
	for fd, of := range k.fds {
		if of.mount == m {
			delete(k.fds, fd)
		}
	}
	spec := m.spec
	opts := MountOptions{Sync: m.sync}
	k.dropMount(m)
	if powerCut != nil {
		if err := powerCut(); err != nil {
			return fmt.Errorf("kernel: power cut at %s: %w", m.point, err)
		}
	}
	return k.Mount(m.point, spec, opts)
}

// MountAt returns the mount whose point is the longest one prefixing
// path, along with the path remainder inside the mount.
func (k *Kernel) MountAt(path string) (*Mount, string, errno.Errno) {
	path = vfs.JoinPath(path)
	var best *Mount
	for _, m := range k.mounts {
		// A point prefixes path when path continues with a slash or ends
		// there; "/" prefixes everything.
		if !strings.HasPrefix(path, m.point) {
			continue
		}
		if n := len(m.point); n > 1 && n < len(path) && path[n] != '/' {
			continue
		}
		if best == nil || len(m.point) > len(best.point) {
			best = m
		}
	}
	if best == nil {
		return nil, "", errno.ENOENT
	}
	return best, path[len(best.point):], errno.OK
}

// Mounts lists the current mounts sorted by mount point.
func (k *Kernel) Mounts() []*Mount { return slices.Clone(k.mounts) }

// Invalidator returns the cache invalidator for a mount point, used by
// trackers that restore FS state behind the kernel's back and then
// (correctly) flush the caches.
func (k *Kernel) Invalidator(point string) (CacheInvalidator, error) {
	m, err := k.mountedAt(point)
	if err != nil {
		return nil, err
	}
	return mountInvalidator{m}, nil
}

// OpenFDs reports the number of open file descriptors (tests).
func (k *Kernel) OpenFDs() int { return len(k.fds) }

// --- name resolution ------------------------------------------------------

// lookupCached resolves one component through the dentry cache, falling
// back to the file system and populating the cache. This is where stale
// cache state produces the paper's spurious-EEXIST bug.
func (m *Mount) lookupCached(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	if name == "." || name == ".." {
		// Dot entries are never cached; ask the FS.
		return m.fs.Lookup(parent, name)
	}
	key := dkey{parent, name}
	if ino, ok := m.dcache[key]; ok {
		m.dcacheHits++
		return ino, errno.OK
	}
	if m.negcache[key] {
		m.dcacheHits++
		return 0, errno.ENOENT
	}
	m.dcacheMisses++
	ino, e := m.fs.Lookup(parent, name)
	switch e {
	case errno.OK:
		m.dcache[key] = ino
	case errno.ENOENT:
		m.negcache[key] = true
	}
	return ino, e
}

// cacheAdd records a fresh positive dentry (after create/mkdir/rename)
// and instantiates the inode's attributes, the way the VFS pins a new
// inode in the icache alongside its dentry. Pinned attributes are what
// keep a stale dentry "alive" after a file system restores an older
// state behind the kernel's back (§3.2, §6).
func (m *Mount) cacheAdd(parent vfs.Ino, name string, ino vfs.Ino) {
	key := dkey{parent, name}
	m.dcache[key] = ino
	delete(m.negcache, key)
	if st, e := m.fs.Getattr(ino); e == errno.OK {
		m.acache[ino] = st
	}
}

// cacheRemove records a deletion (negative dentry).
func (m *Mount) cacheRemove(parent vfs.Ino, name string) {
	key := dkey{parent, name}
	delete(m.dcache, key)
	m.negcache[key] = true
	// Attribute cache entries for the removed inode are dropped lazily.
}

// getattrCached serves Getattr from the attribute cache.
func (m *Mount) getattrCached(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	if st, ok := m.acache[ino]; ok {
		return st, errno.OK
	}
	st, e := m.fs.Getattr(ino)
	if e == errno.OK {
		m.acache[ino] = st
	}
	return st, e
}

// attrDirty drops the cached attributes after a mutation.
func (m *Mount) attrDirty(ino vfs.Ino) { delete(m.acache, ino) }

// resolved is the result of a path walk.
type resolved struct {
	mount  *Mount
	ino    vfs.Ino // the final inode (0 if missing)
	parent vfs.Ino // directory holding the final component
	name   string  // final component ("" means the mount root itself)
	exists bool
}

// resolve walks path. When followLast is true, a symlink in the final
// component is followed; parents are always followed.
func (k *Kernel) resolve(path string, followLast bool) (resolved, errno.Errno) {
	m, rest, e := k.MountAt(path)
	if e != errno.OK {
		return resolved{}, e
	}
	return k.walk(m, m.fs.Root(), rest, followLast, 0)
}

// walk resolves rest inside m starting at directory cur. It consumes rest
// one component at a time, the way the VFS hands a file system one name
// per lookup: nothing is split up front, and a symlink's tail is simply
// what is left unconsumed.
func (k *Kernel) walk(m *Mount, cur vfs.Ino, rest string, followLast bool, depth int) (resolved, errno.Errno) {
	if depth > MaxSymlinkDepth {
		return resolved{}, errno.ELOOP
	}
	comp, rest := vfs.NextComponent(rest)
	if comp == "" {
		return resolved{mount: m, ino: cur, parent: cur, name: "", exists: true}, errno.OK
	}
	for {
		next, after := vfs.NextComponent(rest)
		last := next == ""
		st, e := m.getattrCached(cur)
		if e != errno.OK {
			return resolved{}, e
		}
		if !st.Mode.IsDir() {
			return resolved{}, errno.ENOTDIR
		}
		ino, e := m.lookupCached(cur, comp)
		if e == errno.ENOENT {
			if last {
				return resolved{mount: m, parent: cur, name: comp, exists: false}, errno.OK
			}
			return resolved{}, errno.ENOENT
		}
		if e != errno.OK {
			return resolved{}, e
		}
		cst, e := m.getattrCached(ino)
		if e != errno.OK {
			return resolved{}, e
		}
		if cst.Mode.IsSymlink() && (!last || followLast) {
			sl, ok := m.fs.(vfs.SymlinkFS)
			if !ok {
				return resolved{}, errno.EIO
			}
			target, e2 := sl.Readlink(ino)
			if e2 != errno.OK {
				return resolved{}, e2
			}
			// A target starting with "/" is relative to the mount root:
			// mounts are checked in isolation, so a mount is its own
			// universe.
			from := cur
			if strings.HasPrefix(target, "/") {
				from = m.fs.Root()
			}
			if !last {
				target += rest // rest begins with the slash that ended comp
			}
			return k.walk(m, from, target, followLast, depth+1)
		}
		if last {
			return resolved{mount: m, ino: ino, parent: cur, name: comp, exists: true}, errno.OK
		}
		cur = ino
		comp, rest = next, after
	}
}

// syncIfNeeded flushes the mount when it was mounted with -o sync. The
// flush's errno is the caller's to return: under -o sync an operation
// has not succeeded until it is on the medium, so a failed writeback
// (device fault, injected or real) must surface as the operation's
// result rather than vanish.
func (m *Mount) syncIfNeeded() errno.Errno {
	if m.sync {
		return m.fs.Sync()
	}
	return errno.OK
}

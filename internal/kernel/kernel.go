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
	// Dev is the backing medium; nil for in-memory file systems.
	Dev blockdev.Media
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

// Dropper is implemented by file systems that can hand memory back when a
// power cut discards them. Drop writes nothing: the instance is gone, and
// what it held in memory is lost, as it would be.
type Dropper interface {
	Drop()
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

// Mount is one mount point's record, kept for the life of the kernel.
// An unmount detaches it — empties its caches, drops its file system
// instance and keeps its spec — and the next mount at the point attaches
// it again, so a remount allocates nothing of the kernel's. MountAt,
// Mounts and the syscalls see attached records only.
type Mount struct {
	point string
	spec  FilesystemSpec
	fs    vfs.FS // nil while detached
	// ifaces is fs as each optional interface, kept while detached. An
	// interface assertion that misses its call site's cache may allocate
	// (the runtime refills that cache at random), so each is made once
	// per instance (attach).
	ifaces

	caches

	// cache statistics since the last attach, for tests and the
	// performance model
	dcacheHits, dcacheMisses int64
}

// ifaces is a file system as each optional interface the kernel calls,
// nil where it is none.
type ifaces struct {
	cp      vfs.Checkpointer
	rename  vfs.RenameFS
	link    vfs.LinkFS
	symlink vfs.SymlinkFS
	xattr   vfs.XattrFS
}

// caches are a mount point's dentry and attribute caches. An
// invalidation and a detach empty them in place: the maps keep the
// buckets they grew for the life of the record.
type caches struct {
	dcache   map[dkey]vfs.Ino // positive dentries
	negcache map[dkey]bool    // negative dentries
	acache   map[vfs.Ino]vfs.Stat
}

func (c caches) empty() {
	clear(c.dcache)
	clear(c.negcache)
	clear(c.acache)
}

// FS exposes the mounted file system instance (tests and trackers use it).
func (m *Mount) FS() vfs.FS { return m.fs }

// Point returns the mount point path.
func (m *Mount) Point() string { return m.point }

// Type returns the file system type name.
func (m *Mount) Type() string { return m.spec.Type }

// Dev returns the backing medium (nil for in-memory file systems).
func (m *Mount) Dev() blockdev.Media { return m.spec.Dev }

// CacheStats reports dentry-cache hits and misses since the mount.
func (m *Mount) CacheStats() (hits, misses int64) { return m.dcacheHits, m.dcacheMisses }

// Spec returns the filesystem spec the record mounts from.
func (m *Mount) Spec() FilesystemSpec { return m.spec }

// Options returns the mount options.
func (m *Mount) Options() MountOptions { return MountOptions{} }

// mountInvalidator implements CacheInvalidator for one mount.
type mountInvalidator struct{ m *Mount }

// InvalAll empties the mount's caches. An invalidator is good for the
// life of its record: a file system instance that outlives its mount can
// only cost the record's next mount misses.
func (mi mountInvalidator) InvalAll() { mi.m.caches.empty() }

// FD is a file descriptor.
type FD int

// openFile is held by value in the descriptor table: an open allocates
// nothing, and a syscall that moves the offset stores the entry back.
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
	mounts []*Mount // every point's record, detached ones too; sorted by point
	fds    map[FD]openFile
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
		fds:    make(map[FD]openFile),
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

// MountOptions are a mount's options, of which there are none. The
// paper's mount -o sync, which flushes after every mutating operation,
// is left out: it guarantees flushes but not cache reloads (§3.2),
// which is why the checker remounts instead.
type MountOptions struct{}

// Mount attaches a file system at the given mount point. The first mount
// at a point makes the point's record; a failed mount leaves it detached.
func (k *Kernel) Mount(point string, spec FilesystemSpec, _ MountOptions) error {
	point = vfs.JoinPath(point)
	at, ok := k.mountIndex(point)
	if !ok {
		k.mounts = slices.Insert(k.mounts, at, &Mount{point: point, caches: caches{
			dcache:   make(map[dkey]vfs.Ino),
			negcache: make(map[dkey]bool),
			acache:   make(map[vfs.Ino]vfs.Stat),
		}})
	}
	m := k.mounts[at]
	if m.fs != nil {
		return fmt.Errorf("kernel: %s already mounted", point)
	}
	m.spec = spec
	return m.attach(nil)
}

// attach mounts a detached record from its spec. prev is the instance it
// held last, nil if none: a remount through a mount cache gets that
// instance back, and then ifaces and the invalidator it was bound are
// its already. Instances compare with ==, so a file system's dynamic
// type must be comparable, as a pointer is.
func (m *Mount) attach(prev vfs.FS) error {
	fs, err := m.spec.Mounter()
	if err != nil {
		return fmt.Errorf("kernel: mounting %s at %s: %w", m.spec.Type, m.point, err)
	}
	m.fs, m.dcacheHits, m.dcacheMisses = fs, 0, 0
	if fs == prev {
		return nil
	}
	m.cp, _ = fs.(vfs.Checkpointer)
	m.rename, _ = fs.(vfs.RenameFS)
	m.link, _ = fs.(vfs.LinkFS)
	m.symlink, _ = fs.(vfs.SymlinkFS)
	m.xattr, _ = fs.(vfs.XattrFS)
	if b, ok := fs.(InvalidatorBinder); ok {
		b.BindCacheInvalidator(mountInvalidator{m})
	}
	return nil
}

// detach empties the record's caches and drops its file system instance;
// the syscalls see attached records only, so ifaces stays.
func (m *Mount) detach() {
	m.caches.empty()
	m.fs = nil
}

// mountIndex finds the record at exactly point (a clean path), or the
// index at which a record there would keep the table sorted.
func (k *Kernel) mountIndex(point string) (int, bool) {
	return slices.BinarySearchFunc(k.mounts, point, func(m *Mount, point string) int {
		return strings.Compare(m.point, point)
	})
}

// mountedAt returns the mount at exactly point.
func (k *Kernel) mountedAt(point string) (*Mount, error) {
	point = vfs.JoinPath(point)
	i, ok := k.mountIndex(point)
	if !ok || k.mounts[i].fs == nil {
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
	m.detach()
	return nil
}

// cycle is every remount. It detaches the file system at point — through
// its Unmounter when flush is set; otherwise as a power cut, which drops
// the mount's open descriptors, flushes nothing and hands a Dropper's
// memory back — runs between (when set) while the point is empty, and
// attaches the point's record again from its spec. A record that a
// failed mount left detached is only attached.
func (k *Kernel) cycle(point string, flush bool, between func() error) error {
	point = vfs.JoinPath(point)
	i, ok := k.mountIndex(point)
	if !ok {
		return fmt.Errorf("kernel: %s not mounted", point)
	}
	m := k.mounts[i]
	prev := m.fs
	switch {
	case m.fs == nil:
	case flush:
		if err := k.Unmount(point); err != nil {
			return err
		}
	default:
		fs := m.fs
		for fd, of := range k.fds {
			if of.mount == m {
				delete(k.fds, fd)
			}
		}
		m.detach()
		if d, ok := fs.(Dropper); ok {
			d.Drop()
		}
	}
	if between != nil {
		if err := between(); err != nil {
			return err
		}
	}
	return m.attach(prev)
}

// Remount unmounts and immediately remounts a file system, rebuilding all
// in-memory state from the backing device. This is the paper's
// cache-coherency hammer (§3.2): the only way to guarantee no stale state
// remains in kernel memory.
func (k *Kernel) Remount(point string) error {
	defer k.obsHub.StartTimed(obs.LayerKernel, "remount", k.histRemount).End()
	return k.cycle(point, true, nil)
}

// RemountWith remounts the file system at point as Remount does, minus
// the span, and runs between while the point is empty: a tracker rewinds
// the device there, a crash oracle loads an image. A point that a failed
// mount left empty is only mounted.
func (k *Kernel) RemountWith(point string, between func() error) error {
	return k.cycle(point, true, between)
}

// CrashRemount simulates power loss at point: every open file descriptor
// and all in-memory mount state (file system instance, dentry/attribute
// caches) are discarded WITHOUT any flush — no Unmounter runs, because a
// power cut does not get to write back dirty state. powerCut then runs
// with the mount gone (it installs the surviving media image on the
// backing device), and the file system is mounted fresh from that image,
// which is where its recovery (journal replay, log scan) executes. A
// discarded instance that is a Dropper is dropped first. A mount failure
// leaves the point's record detached — recovery failed — and the next
// remount of the point only mounts it.
func (k *Kernel) CrashRemount(point string, powerCut func() error) error {
	defer k.begin("crash-remount").End()
	return k.cycle(point, false, func() error {
		if powerCut == nil {
			return nil
		}
		if err := powerCut(); err != nil {
			return fmt.Errorf("kernel: power cut at %s: %w", vfs.JoinPath(point), err)
		}
		return nil
	})
}

// MountAt returns the mount whose point is the longest one prefixing
// path, along with the path remainder inside the mount.
func (k *Kernel) MountAt(path string) (*Mount, string, errno.Errno) {
	path = vfs.JoinPath(path)
	var best *Mount
	for _, m := range k.mounts {
		// A point prefixes path when path continues with a slash or ends
		// there; "/" prefixes everything.
		if m.fs == nil || !strings.HasPrefix(path, m.point) {
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
func (k *Kernel) Mounts() []*Mount {
	return slices.DeleteFunc(slices.Clone(k.mounts), func(m *Mount) bool { return m.fs == nil })
}

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
			if m.symlink == nil {
				return resolved{}, errno.EIO
			}
			target, e2 := m.symlink.Readlink(ino)
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

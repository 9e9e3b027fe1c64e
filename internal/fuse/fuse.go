// Package fuse simulates the FUSE transport: a user-space file system
// server process the kernel reaches through /dev/fuse.
//
// The paper's VeriFS is a FUSE file system: every syscall the kernel
// receives for it becomes a message to the user-space server, and the
// reply travels back the same way (Figure 1). Three properties of that
// arrangement matter for MCFS and are reproduced here:
//
//   - the server is its own process holding the /dev/fuse character
//     device open — which is exactly why CRIU refuses to checkpoint it
//     (§5);
//   - every operation pays user/kernel round-trip latency;
//   - the kernel keeps dentry/attribute caches for FUSE mounts, so a
//     server that restores an older state must call the notify APIs
//     (fuse_lowlevel_notify_inval_entry / _inval_inode) or the kernel
//     serves stale entries — the paper's second VeriFS1 bug (§6).
//
// The round trip is modelled once, on the virtual clock: messageCost, an
// opcode-named span and the fuse.requests counter per call. The transport
// itself is a function call — the kernel serializes operations per mount
// (vfs.FS), so a real goroutine and channel pair would add wall-clock
// cost the model never sees, and would run the file system outside the
// engine's recover.
//
// Server wraps any vfs.FS; Client implements vfs.FS on the kernel side.
package fuse

import (
	"fmt"
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/obs"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// messageCost is the virtual time one kernel<->server round trip costs
// (two context switches plus copying through /dev/fuse).
const messageCost = 3 * time.Microsecond

// DeviceFile is the character device the server holds open.
const DeviceFile = "/dev/fuse"

// ServerOptions configures the user-space server.
type ServerOptions struct {
	// SkipInvalidateOnRestore reproduces the paper's second VeriFS1 bug:
	// the server restores its state without telling the kernel to drop
	// its caches.
	SkipInvalidateOnRestore bool
}

// Server is the user-space file system process: the backing file system
// and what a process snapshotter sees of it. It runs nothing — a Client
// calls the backing file system directly.
type Server struct {
	backing vfs.FS
	// cp, rename, link, symlink and xattr are backing as each optional
	// interface, nil where it is none, asserted once: an interface
	// assertion that misses its call site's cache may allocate (the
	// runtime refills that cache at random), and a round trip allocates
	// nothing of its own.
	cp      vfs.Checkpointer
	rename  vfs.RenameFS
	link    vfs.LinkFS
	symlink vfs.SymlinkFS
	xattr   vfs.XattrFS

	// notify: the fixed VeriFS tells the kernel to drop every cached
	// dentry and attribute of the mount after each successful restore —
	// the one notification a server ever sends.
	notify bool
}

// NewServer wraps backing as a FUSE server process.
func NewServer(backing vfs.FS, opts ServerOptions) *Server {
	s := &Server{backing: backing, notify: !opts.SkipInvalidateOnRestore}
	s.cp, _ = backing.(vfs.Checkpointer)
	s.rename, _ = backing.(vfs.RenameFS)
	s.link, _ = backing.(vfs.LinkFS)
	s.symlink, _ = backing.(vfs.SymlinkFS)
	s.xattr, _ = backing.(vfs.XattrFS)
	return s
}

// OpenDeviceFiles lists the special device files the server process holds
// open; CRIU-style process snapshotting inspects this (§5).
func (s *Server) OpenDeviceFiles() []string { return []string{DeviceFile} }

// ProcessName identifies the server in tracker logs.
func (s *Server) ProcessName() string { return "fuse-server:" + vfs.TypeName(s.backing) }

// Backing exposes the wrapped file system (tests only).
func (s *Server) Backing() vfs.FS { return s.backing }

// Client is the kernel-side adapter: it implements vfs.FS (and the
// optional interfaces) by calling the server's backing file system, one
// charged round trip per call, and it applies the server's invalidation
// notification to the kernel's caches for the mount.
type Client struct {
	server *Server
	clock  *simclock.Clock
	inval  kernel.CacheInvalidator
	root   vfs.Ino

	// Observability handles (nil unless SetObs was called): every
	// kernel->server round trip is counted and traced as a LayerFS span
	// named after the FUSE opcode.
	obsHub      *obs.Hub
	ctrRequests *obs.Counter
}

var _ vfs.FS = (*Client)(nil)
var _ vfs.RenameFS = (*Client)(nil)
var _ vfs.LinkFS = (*Client)(nil)
var _ vfs.SymlinkFS = (*Client)(nil)
var _ vfs.XattrFS = (*Client)(nil)
var _ vfs.Checkpointer = (*Client)(nil)
var _ vfs.Typer = (*Client)(nil)
var _ kernel.InvalidatorBinder = (*Client)(nil)

// NewClient connects a kernel-side client to a server.
func NewClient(server *Server, clock *simclock.Clock) *Client {
	return &Client{server: server, clock: clock, root: server.backing.Root()}
}

// Server exposes the server this client talks to (tests only: from a
// mount to the file system behind it).
func (c *Client) Server() *Server { return c.server }

// BindCacheInvalidator implements kernel.InvalidatorBinder; the kernel
// calls it at mount time.
func (c *Client) BindCacheInvalidator(ci kernel.CacheInvalidator) { c.inval = ci }

// SetObs attaches an observability hub, registering the "fuse.requests"
// counter. Nil-safe.
func (c *Client) SetObs(h *obs.Hub) {
	c.obsHub = h
	c.ctrRequests = h.Counter(obs.MetricFuseRequests)
}

// FSType implements vfs.Typer, reporting the backing type over FUSE.
func (c *Client) FSType() string { return vfs.TypeName(c.server.backing) }

// send opens one round trip: a span named after the operation's FUSE
// opcode (FUSE_LOOKUP, FUSE_GETATTR, ... in the real protocol), the
// request count and the virtual message cost. Every method defers the
// span's End around it.
func (c *Client) send(opcode string) obs.SpanHandle {
	sp := c.obsHub.StartSpan(obs.LayerFS, opcode)
	c.ctrRequests.Inc()
	if c.clock != nil {
		c.clock.Advance(messageCost)
	}
	return sp
}

// Root implements vfs.FS.
func (c *Client) Root() vfs.Ino { return c.root }

// Lookup implements vfs.FS.
func (c *Client) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	defer c.send("LOOKUP").End()
	return c.server.backing.Lookup(parent, name)
}

// Getattr implements vfs.FS.
func (c *Client) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	defer c.send("GETATTR").End()
	return c.server.backing.Getattr(ino)
}

// Setattr implements vfs.FS.
func (c *Client) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	defer c.send("SETATTR").End()
	return c.server.backing.Setattr(ino, attr)
}

// Create implements vfs.FS.
func (c *Client) Create(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	defer c.send("CREATE").End()
	return c.server.backing.Create(parent, name, mode, uid, gid)
}

// Mkdir implements vfs.FS.
func (c *Client) Mkdir(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	defer c.send("MKDIR").End()
	return c.server.backing.Mkdir(parent, name, mode, uid, gid)
}

// Unlink implements vfs.FS.
func (c *Client) Unlink(parent vfs.Ino, name string) errno.Errno {
	defer c.send("UNLINK").End()
	return c.server.backing.Unlink(parent, name)
}

// Rmdir implements vfs.FS.
func (c *Client) Rmdir(parent vfs.Ino, name string) errno.Errno {
	defer c.send("RMDIR").End()
	return c.server.backing.Rmdir(parent, name)
}

// Read implements vfs.FS.
func (c *Client) Read(ino vfs.Ino, off int64, n int, dst []byte) ([]byte, errno.Errno) {
	defer c.send("READ").End()
	return c.server.backing.Read(ino, off, n, dst)
}

// Write implements vfs.FS.
func (c *Client) Write(ino vfs.Ino, off int64, data []byte) (int, errno.Errno) {
	defer c.send("WRITE").End()
	return c.server.backing.Write(ino, off, data)
}

// ReadDir implements vfs.FS.
func (c *Client) ReadDir(ino vfs.Ino, dst []vfs.DirEntry) ([]vfs.DirEntry, errno.Errno) {
	defer c.send("READDIR").End()
	return c.server.backing.ReadDir(ino, dst)
}

// StatFS implements vfs.FS.
func (c *Client) StatFS() (vfs.StatFS, errno.Errno) {
	defer c.send("STATFS").End()
	return c.server.backing.StatFS()
}

// Sync implements vfs.FS.
func (c *Client) Sync() errno.Errno {
	defer c.send("FSYNC").End()
	return c.server.backing.Sync()
}

// Rename implements vfs.RenameFS (the server replies ENOSYS when the
// backing file system cannot rename, as real FUSE servers do).
func (c *Client) Rename(oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string) errno.Errno {
	defer c.send("RENAME").End()
	if fs := c.server.rename; fs != nil {
		return fs.Rename(oldParent, oldName, newParent, newName)
	}
	return errno.ENOSYS
}

// Link implements vfs.LinkFS.
func (c *Client) Link(ino vfs.Ino, newParent vfs.Ino, newName string) errno.Errno {
	defer c.send("LINK").End()
	if fs := c.server.link; fs != nil {
		return fs.Link(ino, newParent, newName)
	}
	return errno.ENOSYS
}

// Symlink implements vfs.SymlinkFS.
func (c *Client) Symlink(target string, parent vfs.Ino, name string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	defer c.send("SYMLINK").End()
	if fs := c.server.symlink; fs != nil {
		return fs.Symlink(target, parent, name, uid, gid)
	}
	return 0, errno.ENOSYS
}

// Readlink implements vfs.SymlinkFS (EINVAL without symlinks: nothing
// the backing file system holds is one).
func (c *Client) Readlink(ino vfs.Ino) (string, errno.Errno) {
	defer c.send("READLINK").End()
	if fs := c.server.symlink; fs != nil {
		return fs.Readlink(ino)
	}
	return "", errno.EINVAL
}

// SetXattr implements vfs.XattrFS.
func (c *Client) SetXattr(ino vfs.Ino, name string, value []byte) errno.Errno {
	defer c.send("SETXATTR").End()
	if fs := c.server.xattr; fs != nil {
		return fs.SetXattr(ino, name, value)
	}
	return errno.ENOTSUP
}

// GetXattr implements vfs.XattrFS.
func (c *Client) GetXattr(ino vfs.Ino, name string) ([]byte, errno.Errno) {
	defer c.send("GETXATTR").End()
	if fs := c.server.xattr; fs != nil {
		return fs.GetXattr(ino, name)
	}
	return nil, errno.ENOTSUP
}

// ListXattr implements vfs.XattrFS.
func (c *Client) ListXattr(ino vfs.Ino) ([]string, errno.Errno) {
	defer c.send("LISTXATTR").End()
	if fs := c.server.xattr; fs != nil {
		return fs.ListXattr(ino)
	}
	return nil, errno.ENOTSUP
}

// RemoveXattr implements vfs.XattrFS.
func (c *Client) RemoveXattr(ino vfs.Ino, name string) errno.Errno {
	defer c.send("REMOVEXATTR").End()
	if fs := c.server.xattr; fs != nil {
		return fs.RemoveXattr(ino, name)
	}
	return errno.ENOTSUP
}

// CheckpointState implements vfs.Checkpointer: ioctl_CHECKPOINT.
func (c *Client) CheckpointState(key uint64) errno.Errno {
	defer c.send("CHECKPOINT").End()
	if fs := c.server.cp; fs != nil {
		return fs.CheckpointState(key)
	}
	return errno.ENOTSUP
}

// RestoreState implements vfs.Checkpointer: ioctl_RESTORE. A server
// that notifies drops the kernel's caches for the mount after a
// successful restore, before the reply returns (the notify messages
// share the request's channel in real FUSE).
func (c *Client) RestoreState(key uint64) errno.Errno {
	defer c.send("RESTORE").End()
	fs := c.server.cp
	if fs == nil {
		return errno.ENOTSUP
	}
	e := fs.RestoreState(key)
	if e == errno.OK && c.server.notify && c.inval != nil {
		c.inval.InvalAll()
	}
	return e
}

// DiscardState implements vfs.Checkpointer: ioctl_DISCARD. No
// invalidation is needed — discarding a snapshot does not change the
// live state.
func (c *Client) DiscardState(key uint64) errno.Errno {
	defer c.send("DISCARD").End()
	if fs := c.server.cp; fs != nil {
		return fs.DiscardState(key)
	}
	return errno.ENOTSUP
}

// String aids debugging.
func (c *Client) String() string {
	return fmt.Sprintf("fuse client for %s", c.server.ProcessName())
}

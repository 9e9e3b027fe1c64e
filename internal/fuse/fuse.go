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

// restoreHooker is the subset of VeriFS that lets the server observe
// restores so it can fire cache invalidations.
type restoreHooker interface {
	SetOnRestore(func())
}

// Server is the user-space file system process: the backing file system
// and what a process snapshotter sees of it. It runs nothing — a Client
// calls the backing file system directly.
type Server struct {
	backing vfs.FS

	// invalPending is the one notification a server ever sends: drop every
	// cached dentry and attribute of the mount. The restore hook sets it;
	// the Client applies it when the call in flight returns.
	invalPending bool
}

// NewServer wraps backing as a FUSE server process.
func NewServer(backing vfs.FS, opts ServerOptions) *Server {
	s := &Server{backing: backing}
	if rh, ok := backing.(restoreHooker); ok && !opts.SkipInvalidateOnRestore {
		// The fixed VeriFS: after every restore, tell the kernel to drop
		// every cached dentry and attribute for this mount.
		rh.SetOnRestore(func() { s.invalPending = true })
	}
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
var _ vfs.Discarder = (*Client)(nil)
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
// request count and the virtual message cost. Every method defers reply
// around it.
func (c *Client) send(opcode string) obs.SpanHandle {
	sp := c.obsHub.StartSpan(obs.LayerFS, opcode)
	c.ctrRequests.Inc()
	if c.clock != nil {
		c.clock.Advance(messageCost)
	}
	return sp
}

// reply closes the round trip: a notification the server raised during
// the call (the notify messages share the request's channel in real
// FUSE) reaches the kernel caches before the syscall returns.
func (c *Client) reply(sp obs.SpanHandle) {
	if c.server.invalPending {
		c.server.invalPending = false
		if c.inval != nil {
			c.inval.InvalAll()
		}
	}
	sp.End()
}

// Root implements vfs.FS.
func (c *Client) Root() vfs.Ino { return c.root }

// Lookup implements vfs.FS.
func (c *Client) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	defer c.reply(c.send("LOOKUP"))
	return c.server.backing.Lookup(parent, name)
}

// Getattr implements vfs.FS.
func (c *Client) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	defer c.reply(c.send("GETATTR"))
	return c.server.backing.Getattr(ino)
}

// Setattr implements vfs.FS.
func (c *Client) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	defer c.reply(c.send("SETATTR"))
	return c.server.backing.Setattr(ino, attr)
}

// Create implements vfs.FS.
func (c *Client) Create(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	defer c.reply(c.send("CREATE"))
	return c.server.backing.Create(parent, name, mode, uid, gid)
}

// Mkdir implements vfs.FS.
func (c *Client) Mkdir(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	defer c.reply(c.send("MKDIR"))
	return c.server.backing.Mkdir(parent, name, mode, uid, gid)
}

// Unlink implements vfs.FS.
func (c *Client) Unlink(parent vfs.Ino, name string) errno.Errno {
	defer c.reply(c.send("UNLINK"))
	return c.server.backing.Unlink(parent, name)
}

// Rmdir implements vfs.FS.
func (c *Client) Rmdir(parent vfs.Ino, name string) errno.Errno {
	defer c.reply(c.send("RMDIR"))
	return c.server.backing.Rmdir(parent, name)
}

// Read implements vfs.FS.
func (c *Client) Read(ino vfs.Ino, off int64, n int) ([]byte, errno.Errno) {
	defer c.reply(c.send("READ"))
	return c.server.backing.Read(ino, off, n)
}

// Write implements vfs.FS.
func (c *Client) Write(ino vfs.Ino, off int64, data []byte) (int, errno.Errno) {
	defer c.reply(c.send("WRITE"))
	return c.server.backing.Write(ino, off, data)
}

// ReadDir implements vfs.FS.
func (c *Client) ReadDir(ino vfs.Ino) ([]vfs.DirEntry, errno.Errno) {
	defer c.reply(c.send("READDIR"))
	return c.server.backing.ReadDir(ino)
}

// StatFS implements vfs.FS.
func (c *Client) StatFS() (vfs.StatFS, errno.Errno) {
	defer c.reply(c.send("STATFS"))
	return c.server.backing.StatFS()
}

// Sync implements vfs.FS.
func (c *Client) Sync() errno.Errno {
	defer c.reply(c.send("FSYNC"))
	return c.server.backing.Sync()
}

// Rename implements vfs.RenameFS (the server replies ENOSYS when the
// backing file system cannot rename, as real FUSE servers do).
func (c *Client) Rename(oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string) errno.Errno {
	defer c.reply(c.send("RENAME"))
	if fs, ok := c.server.backing.(vfs.RenameFS); ok {
		return fs.Rename(oldParent, oldName, newParent, newName)
	}
	return errno.ENOSYS
}

// Link implements vfs.LinkFS.
func (c *Client) Link(ino vfs.Ino, newParent vfs.Ino, newName string) errno.Errno {
	defer c.reply(c.send("LINK"))
	if fs, ok := c.server.backing.(vfs.LinkFS); ok {
		return fs.Link(ino, newParent, newName)
	}
	return errno.ENOSYS
}

// Symlink implements vfs.SymlinkFS.
func (c *Client) Symlink(target string, parent vfs.Ino, name string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	defer c.reply(c.send("SYMLINK"))
	if fs, ok := c.server.backing.(vfs.SymlinkFS); ok {
		return fs.Symlink(target, parent, name, uid, gid)
	}
	return 0, errno.ENOSYS
}

// Readlink implements vfs.SymlinkFS (EINVAL without symlinks: nothing
// the backing file system holds is one).
func (c *Client) Readlink(ino vfs.Ino) (string, errno.Errno) {
	defer c.reply(c.send("READLINK"))
	if fs, ok := c.server.backing.(vfs.SymlinkFS); ok {
		return fs.Readlink(ino)
	}
	return "", errno.EINVAL
}

// SetXattr implements vfs.XattrFS.
func (c *Client) SetXattr(ino vfs.Ino, name string, value []byte) errno.Errno {
	defer c.reply(c.send("SETXATTR"))
	if fs, ok := c.server.backing.(vfs.XattrFS); ok {
		return fs.SetXattr(ino, name, value)
	}
	return errno.ENOTSUP
}

// GetXattr implements vfs.XattrFS.
func (c *Client) GetXattr(ino vfs.Ino, name string) ([]byte, errno.Errno) {
	defer c.reply(c.send("GETXATTR"))
	if fs, ok := c.server.backing.(vfs.XattrFS); ok {
		return fs.GetXattr(ino, name)
	}
	return nil, errno.ENOTSUP
}

// ListXattr implements vfs.XattrFS.
func (c *Client) ListXattr(ino vfs.Ino) ([]string, errno.Errno) {
	defer c.reply(c.send("LISTXATTR"))
	if fs, ok := c.server.backing.(vfs.XattrFS); ok {
		return fs.ListXattr(ino)
	}
	return nil, errno.ENOTSUP
}

// RemoveXattr implements vfs.XattrFS.
func (c *Client) RemoveXattr(ino vfs.Ino, name string) errno.Errno {
	defer c.reply(c.send("REMOVEXATTR"))
	if fs, ok := c.server.backing.(vfs.XattrFS); ok {
		return fs.RemoveXattr(ino, name)
	}
	return errno.ENOTSUP
}

// CheckpointState implements vfs.Checkpointer: ioctl_CHECKPOINT.
func (c *Client) CheckpointState(key uint64) errno.Errno {
	defer c.reply(c.send("CHECKPOINT"))
	if fs, ok := c.server.backing.(vfs.Checkpointer); ok {
		return fs.CheckpointState(key)
	}
	return errno.ENOTSUP
}

// RestoreState implements vfs.Checkpointer: ioctl_RESTORE. The server's
// restore hook raises the cache invalidation, applied before this returns.
func (c *Client) RestoreState(key uint64) errno.Errno {
	defer c.reply(c.send("RESTORE"))
	if fs, ok := c.server.backing.(vfs.Checkpointer); ok {
		return fs.RestoreState(key)
	}
	return errno.ENOTSUP
}

// DiscardState implements vfs.Discarder: ioctl_DISCARD. No invalidation
// is needed — discarding a snapshot does not change the live state.
func (c *Client) DiscardState(key uint64) errno.Errno {
	defer c.reply(c.send("DISCARD"))
	if fs, ok := c.server.backing.(vfs.Discarder); ok {
		return fs.DiscardState(key)
	}
	return errno.ENOTSUP
}

// String aids debugging.
func (c *Client) String() string {
	return fmt.Sprintf("fuse client for %s", c.server.ProcessName())
}

// Package fuse simulates the FUSE transport: a user-space file system
// server process connected to the kernel through a message channel
// standing in for /dev/fuse.
//
// The paper's VeriFS is a FUSE file system: every syscall the kernel
// receives for it becomes a message to the user-space server, and the
// reply travels back the same way (Figure 1). Three properties of that
// arrangement matter for MCFS and are reproduced here:
//
//   - the server runs as its own process (a goroutine here) holding the
//     /dev/fuse character device open — which is exactly why CRIU refuses
//     to checkpoint it (§5);
//   - every operation pays user/kernel round-trip latency;
//   - the kernel keeps dentry/attribute caches for FUSE mounts, so a
//     server that restores an older state must call the notify APIs
//     (fuse_lowlevel_notify_inval_entry / _inval_inode) or the kernel
//     serves stale entries — the paper's second VeriFS1 bug (§6).
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

type opcode int

const (
	opLookup opcode = iota
	opGetattr
	opSetattr
	opCreate
	opMkdir
	opUnlink
	opRmdir
	opRead
	opWrite
	opReadDir
	opStatFS
	opSync
	opRename
	opLink
	opSymlink
	opReadlink
	opSetXattr
	opGetXattr
	opListXattr
	opRemoveXattr
	opCheckpoint
	opRestore
	opDiscard
	opShutdown
)

// opNames gives FUSE wire names for trace spans, matching the
// FUSE_LOOKUP/FUSE_GETATTR/... opcode spelling of the real protocol.
var opNames = [...]string{
	opLookup:      "LOOKUP",
	opGetattr:     "GETATTR",
	opSetattr:     "SETATTR",
	opCreate:      "CREATE",
	opMkdir:       "MKDIR",
	opUnlink:      "UNLINK",
	opRmdir:       "RMDIR",
	opRead:        "READ",
	opWrite:       "WRITE",
	opReadDir:     "READDIR",
	opStatFS:      "STATFS",
	opSync:        "FSYNC",
	opRename:      "RENAME",
	opLink:        "LINK",
	opSymlink:     "SYMLINK",
	opReadlink:    "READLINK",
	opSetXattr:    "SETXATTR",
	opGetXattr:    "GETXATTR",
	opListXattr:   "LISTXATTR",
	opRemoveXattr: "REMOVEXATTR",
	opCheckpoint:  "CHECKPOINT",
	opRestore:     "RESTORE",
	opDiscard:     "DISCARD",
	opShutdown:    "DESTROY",
}

func (op opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("opcode(%d)", int(op))
}

type request struct {
	op    opcode
	ino   vfs.Ino
	ino2  vfs.Ino
	name  string
	name2 string
	off   int64
	n     int
	data  []byte
	mode  vfs.Mode
	uid   uint32
	gid   uint32
	attr  vfs.SetAttr
	key   uint64

	reply chan response
}

type response struct {
	e       errno.Errno
	ino     vfs.Ino
	stat    vfs.Stat
	data    []byte
	n       int
	entries []vfs.DirEntry
	names   []string
	statfs  vfs.StatFS
	str     string
}

type notification struct {
	entry  bool
	parent vfs.Ino
	name   string
	ino    vfs.Ino
	all    bool
}

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

// Server is the user-space file system process.
type Server struct {
	backing vfs.FS
	clock   *simclock.Clock
	opts    ServerOptions

	requests chan *request
	notify   chan notification
	done     chan struct{}
}

// NewServer starts the server process (goroutine) around backing.
func NewServer(backing vfs.FS, clock *simclock.Clock, opts ServerOptions) *Server {
	s := &Server{
		backing:  backing,
		clock:    clock,
		opts:     opts,
		requests: make(chan *request),
		notify:   make(chan notification, 64),
		done:     make(chan struct{}),
	}
	if rh, ok := backing.(restoreHooker); ok && !opts.SkipInvalidateOnRestore {
		// The fixed VeriFS: after every restore, tell the kernel to drop
		// every cached dentry and attribute for this mount.
		rh.SetOnRestore(func() {
			select {
			case s.notify <- notification{all: true}:
			default:
				// Queue full: collapse into one pending invalidate-all.
			}
		})
	}
	go s.loop()
	return s
}

// OpenDeviceFiles lists the special device files the server process holds
// open; CRIU-style process snapshotting inspects this (§5).
func (s *Server) OpenDeviceFiles() []string { return []string{DeviceFile} }

// ProcessName identifies the server in tracker logs.
func (s *Server) ProcessName() string { return "fuse-server:" + vfs.TypeName(s.backing) }

// Backing exposes the wrapped file system (tests only).
func (s *Server) Backing() vfs.FS { return s.backing }

// Shutdown stops the server loop.
func (s *Server) Shutdown() {
	req := &request{op: opShutdown, reply: make(chan response, 1)}
	s.requests <- req
	<-req.reply
	<-s.done
}

func (s *Server) loop() {
	defer close(s.done)
	for req := range s.requests {
		if req.op == opShutdown {
			req.reply <- response{}
			return
		}
		req.reply <- s.dispatch(req)
	}
}

func (s *Server) dispatch(req *request) response {
	fs := s.backing
	switch req.op {
	case opLookup:
		ino, e := fs.Lookup(req.ino, req.name)
		return response{e: e, ino: ino}
	case opGetattr:
		st, e := fs.Getattr(req.ino)
		return response{e: e, stat: st}
	case opSetattr:
		return response{e: fs.Setattr(req.ino, req.attr)}
	case opCreate:
		ino, e := fs.Create(req.ino, req.name, req.mode, req.uid, req.gid)
		return response{e: e, ino: ino}
	case opMkdir:
		ino, e := fs.Mkdir(req.ino, req.name, req.mode, req.uid, req.gid)
		return response{e: e, ino: ino}
	case opUnlink:
		return response{e: fs.Unlink(req.ino, req.name)}
	case opRmdir:
		return response{e: fs.Rmdir(req.ino, req.name)}
	case opRead:
		data, e := fs.Read(req.ino, req.off, req.n)
		return response{e: e, data: data}
	case opWrite:
		n, e := fs.Write(req.ino, req.off, req.data)
		return response{e: e, n: n}
	case opReadDir:
		entries, e := fs.ReadDir(req.ino)
		return response{e: e, entries: entries}
	case opStatFS:
		st, e := fs.StatFS()
		return response{e: e, statfs: st}
	case opSync:
		return response{e: fs.Sync()}
	case opRename:
		rfs, ok := fs.(vfs.RenameFS)
		if !ok {
			return response{e: errno.ENOSYS}
		}
		return response{e: rfs.Rename(req.ino, req.name, req.ino2, req.name2)}
	case opLink:
		lfs, ok := fs.(vfs.LinkFS)
		if !ok {
			return response{e: errno.ENOSYS}
		}
		return response{e: lfs.Link(req.ino, req.ino2, req.name2)}
	case opSymlink:
		sfs, ok := fs.(vfs.SymlinkFS)
		if !ok {
			return response{e: errno.ENOSYS}
		}
		ino, e := sfs.Symlink(req.name, req.ino, req.name2, req.uid, req.gid)
		return response{e: e, ino: ino}
	case opReadlink:
		sfs, ok := fs.(vfs.SymlinkFS)
		if !ok {
			return response{e: errno.EINVAL}
		}
		str, e := sfs.Readlink(req.ino)
		return response{e: e, str: str}
	case opSetXattr:
		xfs, ok := fs.(vfs.XattrFS)
		if !ok {
			return response{e: errno.ENOTSUP}
		}
		return response{e: xfs.SetXattr(req.ino, req.name, req.data)}
	case opGetXattr:
		xfs, ok := fs.(vfs.XattrFS)
		if !ok {
			return response{e: errno.ENOTSUP}
		}
		data, e := xfs.GetXattr(req.ino, req.name)
		return response{e: e, data: data}
	case opListXattr:
		xfs, ok := fs.(vfs.XattrFS)
		if !ok {
			return response{e: errno.ENOTSUP}
		}
		names, e := xfs.ListXattr(req.ino)
		return response{e: e, names: names}
	case opRemoveXattr:
		xfs, ok := fs.(vfs.XattrFS)
		if !ok {
			return response{e: errno.ENOTSUP}
		}
		return response{e: xfs.RemoveXattr(req.ino, req.name)}
	case opCheckpoint:
		cp, ok := fs.(vfs.Checkpointer)
		if !ok {
			return response{e: errno.ENOTSUP}
		}
		return response{e: cp.CheckpointState(req.key)}
	case opRestore:
		cp, ok := fs.(vfs.Checkpointer)
		if !ok {
			return response{e: errno.ENOTSUP}
		}
		return response{e: cp.RestoreState(req.key)}
	case opDiscard:
		dc, ok := fs.(vfs.Discarder)
		if !ok {
			return response{e: errno.ENOTSUP}
		}
		return response{e: dc.DiscardState(req.key)}
	}
	return response{e: errno.ENOSYS}
}

// Client is the kernel-side adapter: it implements vfs.FS (and the
// optional interfaces) by exchanging messages with the server, and it
// forwards the server's invalidation notifications into the kernel's
// caches for the mount.
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

func (c *Client) call(req *request) response {
	defer c.obsHub.StartSpan(obs.LayerFS, req.op.String()).End()
	c.ctrRequests.Inc()
	if c.clock != nil {
		c.clock.Advance(messageCost)
	}
	req.reply = make(chan response, 1)
	c.server.requests <- req
	resp := <-req.reply
	c.drainNotifications()
	return resp
}

// drainNotifications applies queued invalidation notifications to the
// kernel caches (the notify messages travel over the same channel pair
// in real FUSE).
func (c *Client) drainNotifications() {
	for {
		select {
		case n := <-c.server.notify:
			if c.inval == nil {
				continue
			}
			switch {
			case n.all:
				c.inval.InvalAll()
			case n.entry:
				c.inval.InvalEntry(n.parent, n.name)
			default:
				c.inval.InvalInode(n.ino)
			}
		default:
			return
		}
	}
}

// Root implements vfs.FS.
func (c *Client) Root() vfs.Ino { return c.root }

// Lookup implements vfs.FS.
func (c *Client) Lookup(parent vfs.Ino, name string) (vfs.Ino, errno.Errno) {
	r := c.call(&request{op: opLookup, ino: parent, name: name})
	return r.ino, r.e
}

// Getattr implements vfs.FS.
func (c *Client) Getattr(ino vfs.Ino) (vfs.Stat, errno.Errno) {
	r := c.call(&request{op: opGetattr, ino: ino})
	return r.stat, r.e
}

// Setattr implements vfs.FS.
func (c *Client) Setattr(ino vfs.Ino, attr vfs.SetAttr) errno.Errno {
	return c.call(&request{op: opSetattr, ino: ino, attr: attr}).e
}

// Create implements vfs.FS.
func (c *Client) Create(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	r := c.call(&request{op: opCreate, ino: parent, name: name, mode: mode, uid: uid, gid: gid})
	return r.ino, r.e
}

// Mkdir implements vfs.FS.
func (c *Client) Mkdir(parent vfs.Ino, name string, mode vfs.Mode, uid, gid uint32) (vfs.Ino, errno.Errno) {
	r := c.call(&request{op: opMkdir, ino: parent, name: name, mode: mode, uid: uid, gid: gid})
	return r.ino, r.e
}

// Unlink implements vfs.FS.
func (c *Client) Unlink(parent vfs.Ino, name string) errno.Errno {
	return c.call(&request{op: opUnlink, ino: parent, name: name}).e
}

// Rmdir implements vfs.FS.
func (c *Client) Rmdir(parent vfs.Ino, name string) errno.Errno {
	return c.call(&request{op: opRmdir, ino: parent, name: name}).e
}

// Read implements vfs.FS.
func (c *Client) Read(ino vfs.Ino, off int64, n int) ([]byte, errno.Errno) {
	r := c.call(&request{op: opRead, ino: ino, off: off, n: n})
	return r.data, r.e
}

// Write implements vfs.FS.
func (c *Client) Write(ino vfs.Ino, off int64, data []byte) (int, errno.Errno) {
	r := c.call(&request{op: opWrite, ino: ino, off: off, data: data})
	return r.n, r.e
}

// ReadDir implements vfs.FS.
func (c *Client) ReadDir(ino vfs.Ino) ([]vfs.DirEntry, errno.Errno) {
	r := c.call(&request{op: opReadDir, ino: ino})
	return r.entries, r.e
}

// StatFS implements vfs.FS.
func (c *Client) StatFS() (vfs.StatFS, errno.Errno) {
	r := c.call(&request{op: opStatFS})
	return r.statfs, r.e
}

// Sync implements vfs.FS.
func (c *Client) Sync() errno.Errno {
	return c.call(&request{op: opSync}).e
}

// Rename implements vfs.RenameFS (the server replies ENOSYS when the
// backing file system cannot rename, as real FUSE servers do).
func (c *Client) Rename(oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string) errno.Errno {
	return c.call(&request{op: opRename, ino: oldParent, name: oldName, ino2: newParent, name2: newName}).e
}

// Link implements vfs.LinkFS.
func (c *Client) Link(ino vfs.Ino, newParent vfs.Ino, newName string) errno.Errno {
	return c.call(&request{op: opLink, ino: ino, ino2: newParent, name2: newName}).e
}

// Symlink implements vfs.SymlinkFS.
func (c *Client) Symlink(target string, parent vfs.Ino, name string, uid, gid uint32) (vfs.Ino, errno.Errno) {
	r := c.call(&request{op: opSymlink, ino: parent, name: target, name2: name, uid: uid, gid: gid})
	return r.ino, r.e
}

// Readlink implements vfs.SymlinkFS.
func (c *Client) Readlink(ino vfs.Ino) (string, errno.Errno) {
	r := c.call(&request{op: opReadlink, ino: ino})
	return r.str, r.e
}

// SetXattr implements vfs.XattrFS.
func (c *Client) SetXattr(ino vfs.Ino, name string, value []byte) errno.Errno {
	return c.call(&request{op: opSetXattr, ino: ino, name: name, data: value}).e
}

// GetXattr implements vfs.XattrFS.
func (c *Client) GetXattr(ino vfs.Ino, name string) ([]byte, errno.Errno) {
	r := c.call(&request{op: opGetXattr, ino: ino, name: name})
	return r.data, r.e
}

// ListXattr implements vfs.XattrFS.
func (c *Client) ListXattr(ino vfs.Ino) ([]string, errno.Errno) {
	r := c.call(&request{op: opListXattr, ino: ino})
	return r.names, r.e
}

// RemoveXattr implements vfs.XattrFS.
func (c *Client) RemoveXattr(ino vfs.Ino, name string) errno.Errno {
	return c.call(&request{op: opRemoveXattr, ino: ino, name: name}).e
}

// CheckpointState implements vfs.Checkpointer: ioctl_CHECKPOINT.
func (c *Client) CheckpointState(key uint64) errno.Errno {
	return c.call(&request{op: opCheckpoint, key: key}).e
}

// RestoreState implements vfs.Checkpointer: ioctl_RESTORE. The server's
// restore hook enqueues cache invalidations, applied before this returns.
func (c *Client) RestoreState(key uint64) errno.Errno {
	return c.call(&request{op: opRestore, key: key}).e
}

// DiscardState implements vfs.Discarder: ioctl_DISCARD. No invalidation
// is needed — discarding a snapshot does not change the live state.
func (c *Client) DiscardState(key uint64) errno.Errno {
	return c.call(&request{op: opDiscard, key: key}).e
}

// String aids debugging.
func (c *Client) String() string {
	return fmt.Sprintf("fuse client for %s", c.server.ProcessName())
}

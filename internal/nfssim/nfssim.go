// Package nfssim implements a small user-space NFS server, the stand-in
// for NFS-Ganesha in the paper's CRIU discussion (§5): unlike a FUSE
// server, it holds no character or block device open — it speaks to its
// clients over a network socket — so CRIU-style process snapshotting
// (internal/tracker.ProcessSnapshotTracker) can checkpoint it.
//
// The server keeps an in-memory export tree and serves NFSv3-flavored
// procedures (LOOKUP, GETATTR, SETATTR, CREATE, MKDIR, REMOVE, RMDIR,
// READ, WRITE, READDIR) against opaque file handles. Each procedure
// charges a per-RPC latency to the virtual clock.
package nfssim

import (
	"sort"
	"time"

	"mcfs/internal/errno"
	"mcfs/internal/simclock"
)

// rpcCost is the virtual time one NFS RPC costs (loopback transport).
const rpcCost = 12 * time.Microsecond

// FH is an opaque NFS file handle.
type FH uint64

// Attr is the NFS attribute record (a trimmed fattr3).
type Attr struct {
	IsDir bool
	Mode  uint32
	Size  int64
	UID   uint32
	GID   uint32
	Nlink uint32
}

// Entry is one READDIR entry.
type Entry struct {
	Name string
	FH   FH
}

type node struct {
	attr     Attr
	content  []byte
	children map[string]FH
}

func (n *node) clone() *node {
	c := &node{attr: n.attr}
	if n.content != nil {
		c.content = append([]byte(nil), n.content...)
	}
	if n.children != nil {
		c.children = make(map[string]FH, len(n.children))
		for k, v := range n.children {
			c.children[k] = v
		}
	}
	return c
}

// Server is the user-space NFS server "process".
type Server struct {
	clock  *simclock.Clock
	nodes  map[FH]*node
	nextFH FH
}

// New starts a server exporting an empty root directory.
func New(clock *simclock.Clock) *Server {
	s := &Server{clock: clock, nodes: make(map[FH]*node), nextFH: 2}
	s.nodes[1] = &node{
		attr:     Attr{IsDir: true, Mode: 0755, Nlink: 2},
		children: make(map[string]FH),
	}
	return s
}

func (s *Server) charge() {
	if s.clock != nil {
		s.clock.Advance(rpcCost)
	}
}

// RootFH returns the export's root file handle.
func (s *Server) RootFH() FH { return 1 }

// ProcessName implements tracker.Process.
func (s *Server) ProcessName() string { return "nfs-ganesha" }

// OpenDeviceFiles implements tracker.Process: the server talks to a
// network socket only — no character or block devices.
func (s *Server) OpenDeviceFiles() []string { return nil }

// memImage is the process memory image SaveImage produces.
type memImage struct {
	nodes  map[FH]*node
	nextFH FH
}

// SaveImage implements tracker.MemoryImager: a deep copy of the whole
// process heap (the export tree).
func (s *Server) SaveImage() (any, int64, error) {
	img := make(map[FH]*node, len(s.nodes))
	size := int64(0)
	for fh, n := range s.nodes {
		img[fh] = n.clone()
		size += 64 + int64(len(n.content))
		for name := range n.children {
			size += int64(len(name)) + 16
		}
	}
	return memImage{nodes: img, nextFH: s.nextFH}, size, nil
}

// LoadImage implements tracker.MemoryImager.
func (s *Server) LoadImage(imgAny any) error {
	img, ok := imgAny.(memImage)
	if !ok {
		return errno.EINVAL
	}
	s.nodes = make(map[FH]*node, len(img.nodes))
	for fh, n := range img.nodes {
		s.nodes[fh] = n.clone()
	}
	s.nextFH = img.nextFH
	return nil
}

func (s *Server) dir(fh FH) (*node, errno.Errno) {
	n := s.nodes[fh]
	if n == nil {
		return nil, errno.ENOENT // ESTALE in real NFS; ENOENT is our analogue
	}
	if !n.attr.IsDir {
		return nil, errno.ENOTDIR
	}
	return n, errno.OK
}

// Lookup resolves name in the directory dirFH.
func (s *Server) Lookup(dirFH FH, name string) (FH, errno.Errno) {
	s.charge()
	d, e := s.dir(dirFH)
	if e != errno.OK {
		return 0, e
	}
	fh, ok := d.children[name]
	if !ok {
		return 0, errno.ENOENT
	}
	return fh, errno.OK
}

// Getattr returns the attributes of fh.
func (s *Server) Getattr(fh FH) (Attr, errno.Errno) {
	s.charge()
	n := s.nodes[fh]
	if n == nil {
		return Attr{}, errno.ENOENT
	}
	a := n.attr
	a.Size = int64(len(n.content))
	if n.attr.IsDir {
		a.Size = int64(len(n.children)) * 32
	}
	return a, errno.OK
}

// Setattr updates mode/uid/gid and (for files) truncates to size when
// size >= 0.
func (s *Server) Setattr(fh FH, mode *uint32, uid, gid *uint32, size *int64) errno.Errno {
	s.charge()
	n := s.nodes[fh]
	if n == nil {
		return errno.ENOENT
	}
	if mode != nil {
		n.attr.Mode = *mode & 0777
	}
	if uid != nil {
		n.attr.UID = *uid
	}
	if gid != nil {
		n.attr.GID = *gid
	}
	if size != nil {
		if n.attr.IsDir {
			return errno.EISDIR
		}
		if *size < 0 {
			return errno.EINVAL
		}
		if int64(len(n.content)) > *size {
			n.content = n.content[:*size]
		} else {
			nc := make([]byte, *size)
			copy(nc, n.content)
			n.content = nc
		}
	}
	return errno.OK
}

func (s *Server) makeNode(dirFH FH, name string, isDir bool, mode uint32) (FH, errno.Errno) {
	d, e := s.dir(dirFH)
	if e != errno.OK {
		return 0, e
	}
	if name == "" || name == "." || name == ".." {
		return 0, errno.EINVAL
	}
	if _, ok := d.children[name]; ok {
		return 0, errno.EEXIST
	}
	fh := s.nextFH
	s.nextFH++
	n := &node{attr: Attr{IsDir: isDir, Mode: mode & 0777, Nlink: 1}}
	if isDir {
		n.attr.Nlink = 2
		n.children = make(map[string]FH)
		d.attr.Nlink++
	}
	s.nodes[fh] = n
	d.children[name] = fh
	return fh, errno.OK
}

// Create makes a regular file.
func (s *Server) Create(dirFH FH, name string, mode uint32) (FH, errno.Errno) {
	s.charge()
	return s.makeNode(dirFH, name, false, mode)
}

// Mkdir makes a directory.
func (s *Server) Mkdir(dirFH FH, name string, mode uint32) (FH, errno.Errno) {
	s.charge()
	return s.makeNode(dirFH, name, true, mode)
}

// Remove deletes a file.
func (s *Server) Remove(dirFH FH, name string) errno.Errno {
	s.charge()
	d, e := s.dir(dirFH)
	if e != errno.OK {
		return e
	}
	fh, ok := d.children[name]
	if !ok {
		return errno.ENOENT
	}
	n := s.nodes[fh]
	if n != nil && n.attr.IsDir {
		return errno.EISDIR
	}
	delete(d.children, name)
	delete(s.nodes, fh)
	return errno.OK
}

// Rmdir deletes an empty directory.
func (s *Server) Rmdir(dirFH FH, name string) errno.Errno {
	s.charge()
	d, e := s.dir(dirFH)
	if e != errno.OK {
		return e
	}
	fh, ok := d.children[name]
	if !ok {
		return errno.ENOENT
	}
	n := s.nodes[fh]
	if n == nil || !n.attr.IsDir {
		return errno.ENOTDIR
	}
	if len(n.children) > 0 {
		return errno.ENOTEMPTY
	}
	delete(d.children, name)
	delete(s.nodes, fh)
	d.attr.Nlink--
	return errno.OK
}

// Read returns up to n bytes at off.
func (s *Server) Read(fh FH, off int64, n int) ([]byte, errno.Errno) {
	s.charge()
	nd := s.nodes[fh]
	if nd == nil {
		return nil, errno.ENOENT
	}
	if nd.attr.IsDir {
		return nil, errno.EISDIR
	}
	if off < 0 || n < 0 {
		return nil, errno.EINVAL
	}
	if off >= int64(len(nd.content)) {
		return nil, errno.OK
	}
	end := off + int64(n)
	if end > int64(len(nd.content)) {
		end = int64(len(nd.content))
	}
	out := make([]byte, end-off)
	copy(out, nd.content[off:end])
	return out, errno.OK
}

// Write stores data at off, growing the file (holes read as zeros).
func (s *Server) Write(fh FH, off int64, data []byte) (int, errno.Errno) {
	s.charge()
	nd := s.nodes[fh]
	if nd == nil {
		return 0, errno.ENOENT
	}
	if nd.attr.IsDir {
		return 0, errno.EISDIR
	}
	if off < 0 {
		return 0, errno.EINVAL
	}
	end := off + int64(len(data))
	if end > int64(len(nd.content)) {
		nc := make([]byte, end)
		copy(nc, nd.content)
		nd.content = nc
	}
	copy(nd.content[off:end], data)
	return len(data), errno.OK
}

// Readdir lists a directory sorted by name (NFS cookies elided).
func (s *Server) Readdir(dirFH FH) ([]Entry, errno.Errno) {
	s.charge()
	d, e := s.dir(dirFH)
	if e != errno.OK {
		return nil, e
	}
	out := make([]Entry, 0, len(d.children))
	for name, fh := range d.children {
		out = append(out, Entry{Name: name, FH: fh})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, errno.OK
}

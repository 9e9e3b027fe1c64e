// Package kernel stands in for the kernel: a mount point's record keeps
// its caches, emptied in place. It brings back a goroutine, channels, a
// path join, cache maps made outside Mount and a spare cache set.
package kernel

import "strings"

type dkey struct {
	dir  uint64
	name string
}

// dmap names the dentry cache's type: make sees through it.
type dmap map[dkey]uint64

// evch is an alias of a channel type: make sees through it.
type evch = chan int

type caches struct{ dentries map[dkey]uint64 }

func (c caches) empty() { clear(c.dentries) }

type mountInvalidator struct{ c caches }

// InvalAll empties the caches; an allocation here is a mutant.
func (mi mountInvalidator) InvalAll() {
	mi.c.empty()
	_ = make([]uint64, 0, 8) // want "make\(\[\]uint64, 0, 8\): an invalidation empties the"
}

// Mount is a mount point's record.
type Mount struct{ caches }

// Spec is the record's own accessor: allowed.
func (m *Mount) Spec() string { return "" }

// Kernel holds every mount point's record, and spare caches: a mutant.
type Kernel struct {
	mounts []*Mount
	spare  caches // want "spare: a mount point keeps one record"
}

// Mount makes the caches of a point's first record: allowed.
func (k *Kernel) Mount(point string) *Mount {
	m := &Mount{caches{dentries: make(map[dkey]uint64)}}
	k.mounts = append(k.mounts, m)
	return m
}

func (k *Kernel) remount() caches {
	go k.Mount("/")            // want "go statement in a package an explored op crosses: an op is one"
	events := make(evch)       // want "make\(evch\) in a package an explored op crosses: an op is one"
	done := make(chan bool, 1) // want "make\(chan bool, 1\) in a package an explored op crosses: an op is one"
	_, _ = events, done
	return caches{dentries: make(dmap)} // want "make\(dmap\): a mount point's record keeps"
}

func join(dir, name string) string {
	return strings.Join([]string{dir, name}, "/") // want "strings\.Join: a path is consumed"
}

// Package kernel stands in for the kernel: its caches are emptied in
// place and reused. It brings back a goroutine, channels, a path join
// and cache maps made outside Mount.
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

// Kernel holds one mount's caches.
type Kernel struct{ spare caches }

// Mount makes the caches on its no-spare path: allowed.
func (k *Kernel) Mount(point string) caches {
	if k.spare.dentries == nil {
		return caches{dentries: make(map[dkey]uint64)}
	}
	return k.spare
}

func (k *Kernel) remount() caches {
	go k.Mount("/")            // want "go statement in a package an explored op crosses: an op is one"
	events := make(evch)       // want "make\(evch\) in a package an explored op crosses: an op is one"
	done := make(chan bool, 1) // want "make\(chan bool, 1\) in a package an explored op crosses: an op is one"
	_, _ = events, done
	return caches{dentries: make(dmap)} // want "make\(dmap\): a mount's caches are"
}

func join(dir, name string) string {
	return strings.Join([]string{dir, name}, "/") // want "strings\.Join: a path is consumed"
}

// Package runflag is the deleted second CLI's flag package.
package runflag // want "package mcfs/cmd/internal/runflag: a deleted setting or"

// Depth is a shared flag.
var Depth = 3

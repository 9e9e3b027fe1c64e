// Package runflag binds the run-spec flags the mcfs and longrun CLIs
// share straight into an mcfs.Options, so a flag's name, default and
// help text exist once and a new run setting costs one line here.
package runflag

import (
	"flag"
	"fmt"
	"strconv"

	"mcfs"
)

// Bind defines the shared run-spec flags on fs, writing into o.
func Bind(fs *flag.FlagSet, o *mcfs.Options) {
	fs.BoolVar(&o.CrashExploration, "crash", false, "crash-test each operation's write window (ext2/ext4/jffs2 targets; longrun calibrates on the ext pair and reports the crash hot path)")
	fs.BoolVar(&o.ShareVisited, "share-visited", false, "swarm workers share one visited-state table (prune peer-explored states)")
	fs.StringVar(&o.Visited, "visited", "", "visited-table backend: exact (default), compact, or bitstate")
	fs.Var((*Size)(&o.MemBudget), "mem-budget", "memory budget with K/M/G suffix (e.g. 64M); arms the degradation governor")
	fs.Var((*Size)(&o.BitstateBytes), "bitstate-bytes", "bitstate Bloom array size with K/M/G suffix (default: budget/4 or 8M)")
}

// Size is a byte-count flag value with an optional K/M/G suffix
// ("64M"). Zero prints as the empty string: unset, use the default.
type Size int64

func (s *Size) String() string {
	if *s == 0 {
		return ""
	}
	return strconv.FormatInt(int64(*s), 10)
}

func (s *Size) Set(v string) error {
	if v == "" {
		*s = 0
		return nil
	}
	num, mult := v, int64(1)
	switch v[len(v)-1] {
	case 'k', 'K':
		mult, num = 1<<10, v[:len(v)-1]
	case 'm', 'M':
		mult, num = 1<<20, v[:len(v)-1]
	case 'g', 'G':
		mult, num = 1<<30, v[:len(v)-1]
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("bad size %q (want e.g. 65536, 64K, 8M, 1G)", v)
	}
	*s = Size(n * mult)
	return nil
}

// dependents lists the flags that do nothing without a prerequisite:
// moving flag off its default while needs is still at its own is a usage
// error. A row applies to a CLI that defines both names.
var dependents = []struct{ flag, needs string }{
	{"share-visited", "swarm"},
	{"share-visited", "calibration-workers"},
	{"stall-ops", "progress"},
	{"crash-heatmap", "crash"},
}

// CheckDependents reports the first dependent flag set on the parsed fs
// whose prerequisite was left at its default.
func CheckDependents(fs *flag.FlagSet) error {
	isDefault := func(f *flag.Flag) bool { return f.Value.String() == f.DefValue }
	for _, d := range dependents {
		f, needs := fs.Lookup(d.flag), fs.Lookup(d.needs)
		if f != nil && needs != nil && !isDefault(f) && isDefault(needs) {
			return fmt.Errorf("-%s has no effect without -%s", d.flag, d.needs)
		}
	}
	return nil
}

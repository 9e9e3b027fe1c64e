package main

import (
	"flag"
	"fmt"
	"strconv"
)

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
// error.
var dependents = []struct{ flag, needs string }{
	{"share-visited", "swarm"},
	{"stall-ops", "progress"},
	{"crash-heatmap", "crash"},
}

// checkDependents reports the first dependent flag set on the parsed fs
// whose prerequisite was left at its default.
func checkDependents(fs *flag.FlagSet) error {
	isDefault := func(f *flag.Flag) bool { return f.Value.String() == f.DefValue }
	for _, d := range dependents {
		if !isDefault(fs.Lookup(d.flag)) && isDefault(fs.Lookup(d.needs)) {
			return fmt.Errorf("-%s has no effect without -%s", d.flag, d.needs)
		}
	}
	return nil
}

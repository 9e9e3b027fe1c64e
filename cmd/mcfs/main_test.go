package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mcfs/cmd/internal/runflag"
)

// TestFlagSurface pins every flag's name and default to the list taken
// from the commit before the flags were bound to the run spec: a
// refactor may not add, drop, rename or re-default one.
func TestFlagSurface(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("mcfs", flag.ContinueOnError)
	bindFlags(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s\t%s\n", f.Name, f.DefValue) })
	if got.String() != string(want) {
		t.Errorf("flag surface (name, default) changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestDependentFlags: a flag that does nothing without its prerequisite
// is a usage error (exit 2) instead of being silently ignored.
func TestDependentFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"-share-visited", false},
		{"-parallelism 2", false},
		{"-stall-ops 100", false},
		{"-crash-heatmap h.json", false},
		{"-swarm 2 -share-visited -parallelism 2", true},
		{"-progress 1s -stall-ops 100", true},
		{"-crash -crash-heatmap h.json", true},
		{"-share-visited=false -stall-ops 0", true},
		{"", true},
	} {
		fs := flag.NewFlagSet("mcfs", flag.ContinueOnError)
		bindFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatal(err)
		}
		if err := runflag.CheckDependents(fs); (err == nil) != tc.ok {
			t.Errorf("%q: CheckDependents = %v, want ok=%v", tc.args, err, tc.ok)
		}
		if !tc.ok {
			if code := run(strings.Fields("-fs verifs1 -fs verifs2 " + tc.args)); code != 2 {
				t.Errorf("mcfs %s: exit %d, want 2", tc.args, code)
			}
		}
	}
}

package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFlagSurface pins every flag's name and default to the list taken
// from the commit before the flags were bound to the run spec: a
// refactor may not add, drop, rename or re-default one.
func TestFlagSurface(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("longrun", flag.ContinueOnError)
	bindFlags(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s\t%s\n", f.Name, f.DefValue) })
	if got.String() != string(want) {
		t.Errorf("flag surface (name, default) changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestUsageErrors: flag values that used to panic the summary (no
// simulated hour, a zero stride divisor) are usage errors.
func TestUsageErrors(t *testing.T) {
	for _, args := range []string{
		"-days 0.01",
		"-samples-per-day 0",
	} {
		if code := run(strings.Fields(args)); code != 2 {
			t.Errorf("longrun %s: exit %d, want 2", args, code)
		}
	}
}

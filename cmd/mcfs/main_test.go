package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mcfs/cmd/internal/runflag"
	"mcfs/internal/obs/stream"
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
		{"-stall-ops 100", false},
		{"-crash-heatmap h.json", false},
		{"-swarm 2 -share-visited", true},
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

// TestLiveSurfaces runs a swarm with -progress and -events: stderr holds
// the final frame's worker and swarm lines, and an event sink that
// cannot write says so instead of dropping the stream without a word.
func TestLiveSurfaces(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	out := string(runCaptured(t, "mcfs",
		"-fs verifs1 -fs verifs2 -swarm 2 -share-visited -depth 2 -max-ops 300 -progress 1ms -stall-ops 64 -events /dev/full", run))
	for _, want := range []string{"exit 0\n", "progress w1: ", "progress w2: ", "progress swarm: workers=2 ",
		"mcfs: event sink: write /dev/full: no space left on device"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestProgressStopIsIdempotent: the run's explicit stop and its deferred
// one print the final frame once.
func TestProgressStopIsIdempotent(t *testing.T) {
	bus := stream.New()
	bus.Publish(stream.Event{Kind: stream.KindWorkerDrain, Ops: 7, Detail: "done"})
	var buf bytes.Buffer
	stop := startProgress(&buf, bus, nil, time.Hour, 0)
	stop()
	stop()
	if got := strings.Count(buf.String(), "progress main: "); got != 1 || !strings.Contains(buf.String(), "ops=7 ") {
		t.Errorf("after two stops:\n%s", buf.String())
	}
}

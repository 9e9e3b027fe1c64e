package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateOracle = flag.Bool("update", false, "rewrite testdata/oracle from the current CLI")

// TestCLIOracle pins what longrun prints — stdout, stderr and exit code —
// on flag sets whose output is a pure function of the flags (the
// calibration runs in virtual time). Regenerate with
//
//	go test ./cmd/longrun -run TestCLIOracle -update
//
// only for a change that is meant to alter what the CLI prints.
func TestCLIOracle(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"progress", "-days 1 -progress"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runCaptured(t, "longrun", tc.args, run)
			checkOracle(t, filepath.Join("testdata", "oracle", tc.name+".txt"), got)
		})
	}
}

// runCaptured runs the CLI's run function on args with the process's
// stdout and stderr redirected, and renders the invocation, exit code and
// both streams as one document.
func runCaptured(t *testing.T, cmd, args string, run func([]string) int) []byte {
	t.Helper()
	stdout, stderr := os.Stdout, os.Stderr
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	var outBuf, errBuf bytes.Buffer
	outDone, outW := drain(t, &outBuf)
	errDone, errW := drain(t, &errBuf)
	os.Stdout, os.Stderr = outW, errW
	code := run(strings.Fields(args))
	outW.Close()
	errW.Close()
	<-outDone
	<-errDone
	return []byte(fmt.Sprintf("$ %s %s\nexit %d\n--- stdout\n%s--- stderr\n%s", cmd, args, code, outBuf.Bytes(), errBuf.Bytes()))
}

// drain returns a pipe's write end and a channel closed once everything
// written to it has been copied into buf.
func drain(t *testing.T, buf *bytes.Buffer) (chan struct{}, *os.File) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(buf, r)
		r.Close()
	}()
	return done, w
}

// checkOracle compares got against the golden file at path (rewriting it
// under -update).
func checkOracle(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateOracle {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s differs at line %d:\n  got  %s\n  want %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", path, len(g), len(w))
	}
}

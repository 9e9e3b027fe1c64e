// Golden run artifacts: the engine's determinism (virtual time, fixed
// search order) makes every instrumentation plane's output a pure
// function of the configuration, so a refactor of the explore loop is
// behaviour-preserving iff these files do not change. Regenerate with
//
//	go test ./internal/mc -run TestGoldenArtifacts -update
//
// only for a change that is MEANT to alter what a run records.
package mc_test

import (
	"bytes"
	"crypto/md5"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current engine")

// goldenRun explores opts with all three instrumentation planes attached
// and returns every artifact the run leaves behind, by file name.
func goldenRun(t *testing.T, opts mcfs.Options) map[string][]byte {
	t.Helper()
	var jbuf bytes.Buffer
	jw := journal.NewWriter(&jbuf, journal.Options{})
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	hub := obs.New()
	opts.Journal, opts.Stream, opts.Obs = jw, bus, hub

	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sub.Dropped(); n != 0 {
		t.Fatalf("event subscriber dropped %d events", n)
	}

	var events bytes.Buffer
	enc := json.NewEncoder(&events)
	for _, ev := range sub.Drain() {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	indent := func(v any) []byte {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	// The result summary pins what no plane records: virtual elapsed
	// time, coverage, and the visited set the run would resume from.
	states := md5.New()
	for i := range res.Resume.States {
		fmt.Fprintf(states, "%x@%d\n", res.Resume.States[i][:], res.Resume.Depths[i])
	}
	summary := map[string]any{
		"ops":           res.Ops,
		"unique_states": res.UniqueStates,
		"revisits":      res.Revisits,
		"elapsed_ns":    int64(res.Elapsed),
		"fidelity":      res.Fidelity.String(),
		"coverage":      res.Coverage,
		"crash":         res.Crash,
		"resume_states": len(res.Resume.States),
		"resume_md5":    fmt.Sprintf("%x", states.Sum(nil)),
	}
	if res.Bug != nil {
		summary["bug"] = map[string]any{
			"kind":         res.Bug.Discrepancy.Kind,
			"op":           res.Bug.Discrepancy.Op,
			"details":      res.Bug.Discrepancy.Details,
			"trail":        journal.EncodeTrail(res.Bug.Trail),
			"ops_executed": res.Bug.OpsExecuted,
			"trail_spans":  len(res.Bug.TrailSpans),
		}
	}
	out := map[string][]byte{
		"journal.jsonl": jbuf.Bytes(),
		"events.ndjson": events.Bytes(),
		"perf.json":     indent(hub.Profile()),
		"metrics.json":  indent(hub.Snapshot()),
		"result.json":   indent(summary),
	}
	if res.CrashHeatmap != nil {
		out["heatmap.json"] = indent(res.CrashHeatmap.Snapshot())
	}
	return out
}

func TestGoldenArtifacts(t *testing.T) {
	verifs := func(bugs ...string) mcfs.Options {
		return mcfs.Options{
			Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2", Bugs: bugs}},
			MaxDepth: 3,
			MaxOps:   300,
		}
	}
	extCrash := func(bugs ...string) mcfs.Options {
		return mcfs.Options{
			Targets:          []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4", Bugs: bugs}},
			MaxDepth:         1,
			CrashExploration: true,
		}
	}
	for _, tc := range []struct {
		name string
		opts mcfs.Options
	}{
		{"verifs-d3", verifs()},
		{"verifs-d3-hole-bug", verifs(mcfs.BugWriteHoleNoZero)},
		{"ext-crash-d1", extCrash()},
		{"ext-crash-d1-commit-first", extCrash(mcfs.BugJournalCommitFirst)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "golden", tc.name)
			got := goldenRun(t, tc.opts)
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, data := range got {
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			for name, data := range got {
				want, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if !bytes.Equal(data, want) {
					t.Errorf("%s differs from the committed golden (%d vs %d bytes)%s",
						name, len(data), len(want), firstDiff(data, want))
				}
			}
			if entries, _ := os.ReadDir(dir); len(entries) != len(got) {
				t.Errorf("%s holds %d files, the run produced %d", dir, len(entries), len(got))
			}
		})
	}
}

// firstDiff renders the first differing line of two artifacts.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("\nline %d:\n  got  %.300s\n  want %.300s", i+1, g[i], w[i])
		}
	}
	return ""
}

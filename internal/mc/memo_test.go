// The crash verdict memo's exactness, end to end: a run whose memo keys
// all collide, and a run with no memo at all, judge every crash point as
// the real memo does.
package mc_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcfs"
	"mcfs/internal/mc"
	"mcfs/internal/obs/stream"
)

// memoRuns are the crash explorations the memo is held to: a block
// device pair at depth 2, and a block device beside flash at depth 1.
var memoRuns = []struct {
	name string
	opts mcfs.Options
}{
	{"ext2-ext4-d2", mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4"}}, MaxDepth: 2, CrashExploration: true}},
	{"ext4-jffs2-d1", mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "jffs2"}}, MaxDepth: 1, CrashExploration: true}},
}

// TestCrashMemoCollisionsChangeNothing: with every crc colliding, the
// byte compare alone finds each hit, and the run is the real key's to
// the byte — every verdict event, the heatmap, the journal, the virtual
// clock and every other artifact goldenRun collects.
func TestCrashMemoCollisionsChangeNothing(t *testing.T) {
	for _, tc := range memoRuns {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenRun(t, tc.opts)
			mc.CollideCrashKeys(t)
			got := goldenRun(t, tc.opts)
			if len(verdicts(t, want["events.ndjson"])) == 0 {
				t.Fatal("the run judged no crash point")
			}
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Errorf("with every crc colliding, %s differs%s", name, firstDiff(got[name], data))
				}
			}
		})
	}
}

// TestCrashMemoAgreesWithInspectingEveryPoint is the memo-off lockstep:
// a run that judges every crash point afresh gives every point the
// verdict the memoized run gave it, and the same heatmap and journal. Only
// the virtual time differs: the memo skips checks, or it has nothing to
// show.
func TestCrashMemoAgreesWithInspectingEveryPoint(t *testing.T) {
	for _, tc := range memoRuns {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenRun(t, tc.opts)
			mc.DisableCrashMemo(t)
			got := goldenRun(t, tc.opts)
			wv, gv := verdicts(t, want["events.ndjson"]), verdicts(t, got["events.ndjson"])
			if len(wv) == 0 {
				t.Fatal("the run judged no crash point")
			}
			if len(gv) != len(wv) {
				t.Fatalf("memo off: %d crash verdicts, memoized run %d", len(gv), len(wv))
			}
			for i := range wv {
				if gv[i] != wv[i] {
					t.Fatalf("crash point %d: memo off %+v, memoized %+v", i, gv[i], wv[i])
				}
			}
			for _, name := range []string{"heatmap.json", "journal.jsonl"} {
				if !bytes.Equal(got[name], want[name]) {
					t.Errorf("memo off: %s differs%s", name, firstDiff(got[name], want[name]))
				}
			}
			if bytes.Equal(got["result.json"], want["result.json"]) {
				t.Error("memo off takes the memoized run's virtual time: no crash point hit the memo")
			}
			t.Logf("%d crash points", len(wv))
		})
	}
}

// pointVerdict is one crash verdict event without its time and phase.
type pointVerdict struct {
	op, target, verdict string
	depth, write, n     int
}

// verdicts decodes a run's crash verdict events, in order.
func verdicts(t *testing.T, events []byte) []pointVerdict {
	t.Helper()
	var out []pointVerdict
	dec := json.NewDecoder(bytes.NewReader(events))
	for dec.More() {
		var ev stream.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == stream.KindCrashVerdict {
			out = append(out, pointVerdict{ev.Op, ev.Target, ev.Verdict, ev.Depth, ev.Write, ev.Writes})
		}
	}
	return out
}

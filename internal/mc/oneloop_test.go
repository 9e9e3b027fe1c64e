// Tests for the properties the shared explore loop gives by
// construction: run, replay and re-record are one machine, replay
// divergences are never silent, and every Run exit is finalized.
package mc_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/kernel"
	"mcfs/internal/mc"
	"mcfs/internal/obs/journal"
	"mcfs/internal/obs/stream"
	"mcfs/internal/tracker"
)

// record explores opts with an in-memory journal and returns the
// journal's bytes and records.
func record(t *testing.T, opts mcfs.Options) ([]byte, []journal.Record, mcfs.Result) {
	t.Helper()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	opts.Journal = jw
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	recs, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return raw, recs, res
}

// rerecord replays recs on a fresh session built from opts with a
// journal recorder attached, and returns what the replay recorded.
func rerecord(t *testing.T, opts mcfs.Options, recs []journal.Record) ([]byte, mcfs.ReplayReport) {
	t.Helper()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	opts.Journal = jw
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("replay diverged at record %d: %s", rep.DivergedAt, rep.Reason)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestReplayOfRecordIsIdentity is the metamorphic law replay ∘ record =
// id: replay drives the same loop as the run, so a recorder attached to
// a replay writes the journal being replayed — byte for byte for a solo
// run, clean or ending in a bug.
func TestReplayOfRecordIsIdentity(t *testing.T) {
	clean := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   300,
		Seed:     7,
	}
	for name, opts := range map[string]mcfs.Options{"clean": clean, "bug": holeBugOptions()} {
		t.Run(name, func(t *testing.T) {
			raw, recs, res := record(t, opts)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if (res.Bug != nil) != (name == "bug") {
				t.Fatalf("run found bug = %v", res.Bug != nil)
			}
			again, rep := rerecord(t, opts, recs)
			if rep.BugReproduced != (name == "bug") {
				t.Errorf("BugReproduced = %v", rep.BugReproduced)
			}
			if !bytes.Equal(raw, again) {
				t.Errorf("re-recorded journal differs from the original (%d vs %d bytes)%s",
					len(again), len(raw), firstDiff(again, raw))
			}
		})
	}
}

// TestReplayOfSwarmSliceIsIdentity: one swarm worker's slice of a shared
// journal re-records record for record — the worker id and sequence
// fields aside, which belong to the writer, not the loop. The slice's
// visited decisions depended on what its peers had claimed; the script
// replays them as recorded.
func TestReplayOfSwarmSliceIsIdentity(t *testing.T) {
	opts := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 3,
		MaxOps:   200,
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	swarm := opts
	swarm.Workers, swarm.ShareVisited, swarm.Journal = 2, true, jw
	sr, err := mcfs.SwarmRun(swarm, nil)
	if err != nil || sr.Err != nil {
		t.Fatal(err, sr.Err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const worker = 2
	slice := journal.WorkerRecords(all, worker)
	raw, _ := rerecord(t, opts, slice)
	again, err := journal.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(slice) {
		t.Fatalf("re-recorded %d records, the slice has %d", len(again), len(slice))
	}
	for i := range slice {
		want, got := slice[i], again[i]
		want.W, want.Seq, got.W, got.Seq = 0, 0, 0, 0
		w, _ := json.Marshal(want)
		g, _ := json.Marshal(got)
		if !bytes.Equal(w, g) {
			t.Fatalf("record %d:\n  got  %s\n  want %s", i, g, w)
		}
	}
}

// unmountingTracker pulls its target's mount out from under the checker
// after the Nth operation executed: the op's results are in, but the
// state check that follows fails with an errno — an engine failure, not
// a verdict.
type unmountingTracker struct {
	tracker.Tracker
	k     *kernel.Kernel
	point string
	at    int
	calls int
}

func (u *unmountingTracker) PostOp() error {
	if err := u.Tracker.PostOp(); err != nil {
		return err
	}
	if u.calls++; u.calls == u.at {
		return u.k.Unmount(u.point)
	}
	return nil
}

// TestReplayJournalSurfacesEngineFailure: the bug op's checks run
// through engine.step, so a state check that fails on replay is an
// error — the old replay-side copy dropped the errno and reported the
// divergence "exposed no discrepancy".
func TestReplayJournalSurfacesEngineFailure(t *testing.T) {
	_, recs, res := record(t, holeBugOptions())
	if res.Bug == nil {
		t.Fatal("seeded bug not found")
	}
	steps := 0
	for _, r := range recs {
		if r.T == journal.TypeOp {
			steps++
		}
	}
	s, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := *s.Config()
	cfg.Trackers = append([]tracker.Tracker(nil), cfg.Trackers...)
	cfg.Trackers[1] = &unmountingTracker{Tracker: cfg.Trackers[1], k: s.Kernel(), point: "/mnt1", at: steps}
	rep, err := mc.ReplayJournal(cfg, recs)
	if err == nil {
		t.Fatalf("replay reported %+v, want the state-check failure as an error", rep)
	}
	if !strings.Contains(err.Error(), "state check") {
		t.Errorf("error = %v, want the state check's errno", err)
	}
}

// TestReplayJournalTargetCountMismatchDiverges: an op record whose
// errno list does not match the replaying session's target count used
// to skip the errno comparison silently.
func TestReplayJournalTargetCountMismatchDiverges(t *testing.T) {
	opts := mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   50,
	}
	_, recs, _ := record(t, opts)
	var tampered int64
	for i := range recs {
		if recs[i].T == journal.TypeOp && len(recs[i].Errnos) == 2 {
			recs[i].Errnos = recs[i].Errnos[:1]
			tampered = recs[i].Seq
			break
		}
	}
	s, err := mcfs.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.ReplayJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged || rep.DivergedAt != tampered || !strings.Contains(rep.Reason, "2 targets") {
		t.Errorf("report = %+v, want a divergence at record %d naming the target count", rep, tampered)
	}
}

// TestRunFinalizesEarlyFailures: a run that fails before its first
// operation — equalizing free space, or hashing the initial state — is
// still a run that started: the stream must see the worker drain (or
// /workers lists it as running forever) and the journal must end with a
// done record.
func TestRunFinalizesEarlyFailures(t *testing.T) {
	for name, disableEqualize := range map[string]bool{"equalize": false, "initial-hash": true} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			jw := journal.NewWriter(&buf, journal.Options{})
			bus := mcfs.NewStream()
			sub := bus.Subscribe(64)
			defer sub.Close()
			s, err := mcfs.NewSession(mcfs.Options{
				Targets:                  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
				DisableEqualizeFreeSpace: disableEqualize,
				Journal:                  jw,
				Stream:                   bus,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// The checker cannot reach a target that is not mounted.
			if err := s.Kernel().Unmount("/mnt1"); err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			if res.Err == nil {
				t.Fatal("run succeeded with a target unmounted")
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			events := sub.Drain()
			if n := len(events); n != 2 || events[0].Kind != stream.KindWorkerStart ||
				events[1].Kind != stream.KindWorkerDrain || events[1].Detail != "failed" {
				t.Errorf("events = %+v, want worker-start then a failed worker-drain", events)
			}
			if h := bus.Workers(); len(h.Workers) != 1 || h.Workers[0].Status == "running" {
				t.Errorf("worker health = %+v, want the one engine finished", h.Workers)
			}
			recs, err := journal.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(recs); n == 0 || recs[n-1].T != journal.TypeDone || recs[n-1].Done.Err == "" {
				t.Errorf("journal = %+v, want a closing done record carrying the error", recs)
			}
		})
	}
}

// TestReplayTakesNoCheckpoints: a linear trail has nothing to backtrack
// to, so replaying it must not pin one image per operation.
func TestReplayTakesNoCheckpoints(t *testing.T) {
	s, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	s.Close()
	if res.Bug == nil {
		t.Fatal("seeded bug not found")
	}
	fresh, err := mcfs.NewSession(holeBugOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	cfg := *fresh.Config()
	checkpoints := 0
	cfg.Trackers = append([]tracker.Tracker(nil), cfg.Trackers...)
	for i, tr := range cfg.Trackers {
		cfg.Trackers[i] = &countingTracker{Tracker: tr, n: &checkpoints}
	}
	d, err := mc.Replay(cfg, res.Bug.Trail, nil)
	if err != nil || d == nil {
		t.Fatalf("replay = %v, %v; want the bug", d, err)
	}
	if checkpoints != 0 {
		t.Errorf("linear replay took %d checkpoints", checkpoints)
	}
}

type countingTracker struct {
	tracker.Tracker
	n *int
}

func (c *countingTracker) Checkpoint(key uint64) error {
	*c.n++
	return c.Tracker.Checkpoint(key)
}

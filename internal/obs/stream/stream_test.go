package stream

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mcfs/internal/obs"
)

func TestPublishAssignsSequenceAndDelivers(t *testing.T) {
	b := New()
	sub := b.Subscribe(8)
	defer sub.Close()

	b.Publish(Event{Kind: KindStep, At: 10, Op: "mkdir(/d0)"})
	b.Publish(Event{Kind: KindBacktrack, At: 20, Depth: 1})

	got := sub.Drain()
	if len(got) != 2 {
		t.Fatalf("Drain returned %d events, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("sequence numbers = %d, %d, want 1, 2", got[0].Seq, got[1].Seq)
	}
	if got[0].Kind != KindStep || got[1].Kind != KindBacktrack {
		t.Errorf("kinds = %v, %v", got[0].Kind, got[1].Kind)
	}
	if again := sub.Drain(); again != nil {
		t.Errorf("second Drain returned %d events, want nil", len(again))
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	b := New()
	sub := b.Subscribe(4)
	defer sub.Close()

	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: KindStep, Depth: i})
	}
	got := sub.Drain()
	if len(got) != 4 {
		t.Fatalf("Drain returned %d events, want ring capacity 4", len(got))
	}
	// The survivors are the newest four, in publication order.
	for i, ev := range got {
		if want := 6 + i; ev.Depth != want {
			t.Errorf("event %d depth = %d, want %d", i, ev.Depth, want)
		}
	}
	if sub.Dropped() != 6 {
		t.Errorf("subscriber Dropped = %d, want 6", sub.Dropped())
	}
	if b.Dropped() != 6 {
		t.Errorf("bus Dropped = %d, want 6", b.Dropped())
	}
}

func TestSetObsSurfacesDropsAsMetric(t *testing.T) {
	hub := obs.New()
	b := New()
	b.SetObs(hub)
	sub := b.Subscribe(2)
	defer sub.Close()

	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: KindStep})
	}
	snap := hub.Snapshot()
	if got := snap.Counters[obs.MetricStreamDropped]; got != 3 {
		t.Errorf("%s = %d, want 3", obs.MetricStreamDropped, got)
	}
}

func TestPublishNeverBlocksWithoutConsumer(t *testing.T) {
	// A subscriber that is never drained must not stall Publish: the
	// ring overwrites and the notify channel coalesces.
	b := New()
	sub := b.Subscribe(1)
	defer sub.Close()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			b.Publish(Event{Kind: KindStep})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked on an undrained subscriber")
	}
	if sub.Dropped() != 9999 {
		t.Errorf("Dropped = %d, want 9999", sub.Dropped())
	}
}

func TestSubscriberCloseDetaches(t *testing.T) {
	b := New()
	sub := b.Subscribe(4)
	if got := b.Subscribers(); got != 1 {
		t.Fatalf("Subscribers = %d, want 1", got)
	}
	b.Publish(Event{Kind: KindStep})
	sub.Close()
	sub.Close() // idempotent
	if got := b.Subscribers(); got != 0 {
		t.Errorf("Subscribers after Close = %d, want 0", got)
	}
	b.Publish(Event{Kind: KindStep})
	// Events buffered before Close stay drainable; nothing arrives after.
	if got := sub.Drain(); len(got) != 1 {
		t.Errorf("Drain after Close returned %d events, want the 1 buffered", len(got))
	}
}

func TestNotifyChannelWakes(t *testing.T) {
	b := New()
	sub := b.Subscribe(4)
	defer sub.Close()

	go b.Publish(Event{Kind: KindBug})
	select {
	case <-sub.C():
	case <-time.After(10 * time.Second):
		t.Fatal("notify channel never woke")
	}
	if got := sub.Drain(); len(got) != 1 || got[0].Kind != KindBug {
		t.Fatalf("Drain after wake = %+v, want one bug event", got)
	}
}

func TestNilBusAndSubscriberAreSafe(t *testing.T) {
	var b *Bus
	b.Publish(Event{Kind: KindStep})
	b.SetObs(obs.New())
	if s := b.Subscribe(4); s != nil {
		t.Error("nil bus Subscribe returned a subscriber")
	}
	if n := b.Subscribers(); n != 0 {
		t.Errorf("nil bus Subscribers = %d", n)
	}
	if n := b.Dropped(); n != 0 {
		t.Errorf("nil bus Dropped = %d", n)
	}
	if h := b.Workers(); len(h.Workers) != 0 || h.Frontier != 0 {
		t.Errorf("nil bus Workers = %+v", h)
	}

	var s *Subscriber
	if evs := s.Drain(); evs != nil {
		t.Error("nil subscriber Drain returned events")
	}
	if c := s.C(); c != nil {
		t.Error("nil subscriber C returned a channel")
	}
	if n := s.Dropped(); n != 0 {
		t.Errorf("nil subscriber Dropped = %d", n)
	}
	s.Close()

	var h *Heatmap
	h.Record("create_file(/f0)", 0, 5, VerdictBug)
	h.Merge(NewHeatmap())
	NewHeatmap().Merge(h)
	if snap := h.Snapshot(); len(snap.Cells) != 0 {
		t.Error("nil heatmap Snapshot returned cells")
	}
	if n := h.Bugs(); n != 0 {
		t.Errorf("nil heatmap Bugs = %d", n)
	}
}

func TestConcurrentPublishSubscribeRace(t *testing.T) {
	// Exercised under -race by scripts/check.sh: publishers, a draining
	// consumer, and churning subscribers must not trip the detector.
	b := New()
	b.SetObs(obs.New())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Publish(Event{Kind: KindWorkerHeartbeat, Worker: w, Ops: int64(i)})
			}
		}(w)
	}
	sub := b.Subscribe(16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sub.Drain()
			b.Workers()
			churn := b.Subscribe(1)
			churn.Close()
		}
	}()
	wg.Wait()
	sub.Close()
	if got := len(b.Workers().Workers); got != 4 {
		t.Errorf("worker table has %d rows, want 4", got)
	}
}

func TestWorkerHealthLifecycle(t *testing.T) {
	// The frontier ends a second past the staleness bound.
	frontier := DefaultStaleAfter + time.Second
	b := New()
	b.Publish(Event{Kind: KindWorkerStart, Worker: 1, At: 0, Detail: "seed=1"})
	b.Publish(Event{Kind: KindWorkerStart, Worker: 2, At: 0, Detail: "seed=2"})
	// Steps must not advance liveness — only heartbeats do.
	b.Publish(Event{Kind: KindStep, Worker: 2, At: frontier + 2*time.Second})
	b.Publish(Event{Kind: KindWorkerHeartbeat, Worker: 1, At: frontier, Ops: 64, Unique: 10, Revisits: 2, Depth: 4})

	h := b.Workers()
	if h.Frontier != frontier {
		t.Errorf("Frontier = %v, want %v", h.Frontier, frontier)
	}
	if len(h.Workers) != 2 {
		t.Fatalf("Workers = %d rows, want 2", len(h.Workers))
	}
	w1, w2 := h.Workers[0], h.Workers[1]
	if w1.Worker != 1 || w2.Worker != 2 {
		t.Fatalf("rows not in id order: %d, %d", w1.Worker, w2.Worker)
	}
	if w1.Health != "healthy" || w1.Ops != 64 || w1.Unique != 10 || w1.Depth != 4 {
		t.Errorf("worker 1 = %+v, want healthy with heartbeat tallies", w1)
	}
	// Worker 2's last lifecycle event is its start at 0, a second more
	// than DefaultStaleAfter behind the frontier, so it reads unhealthy
	// despite recent steps.
	if w2.Health != "unhealthy" {
		t.Errorf("worker 2 health = %q, want unhealthy (stale heartbeat)", w2.Health)
	}

	b.Publish(Event{Kind: KindWorkerDrain, Worker: 2, At: frontier + time.Second, Ops: 128, Detail: "done"})
	b.Publish(Event{Kind: KindWorkerPanic, Worker: 1, At: frontier + time.Second, Detail: "boom"})
	h = b.Workers()
	w1, w2 = h.Workers[0], h.Workers[1]
	if w1.Status != WorkerPanicked || w1.Health != WorkerPanicked || w1.Detail != "boom" {
		t.Errorf("panicked worker = %+v", w1)
	}
	if w2.Status != WorkerDone || w2.Health != WorkerDone || w2.Ops != 128 || w2.Detail != "done" {
		t.Errorf("drained worker = %+v", w2)
	}
}

func TestEventJSONOmitsZeroFields(t *testing.T) {
	raw, err := json.Marshal(Event{Seq: 1, At: 100, Kind: KindBacktrack, Worker: 0, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"at_ns":100,"kind":"backtrack","worker":0,"depth":2}`
	if string(raw) != want {
		t.Errorf("event JSON = %s, want %s", raw, want)
	}
}

func TestHeatmapRecordSnapshotMerge(t *testing.T) {
	h := NewHeatmap()
	h.Record("write(/f0)", 0, 3, VerdictB0)
	h.Record("write(/f0)", 1, 3, VerdictBug)
	h.Record("write(/f0)", 1, 3, VerdictFsckRepaired)
	h.Record("mkdir(/d0)", 2, 5, VerdictB1)
	h.Record("mkdir(/d0)", 0, 5, "???") // unknown verdicts count as bugs

	other := NewHeatmap()
	other.Record("write(/f0)", 1, 7, VerdictBug)
	h.Merge(other)

	snap := h.Snapshot()
	if snap.Writes != 7 {
		t.Errorf("Writes = %d, want 7 (widest window wins)", snap.Writes)
	}
	wantCells := []HeatmapCell{
		{Op: "mkdir(/d0)", Write: 0, Bug: 1},
		{Op: "mkdir(/d0)", Write: 2, B1: 1},
		{Op: "write(/f0)", Write: 0, B0: 1},
		{Op: "write(/f0)", Write: 1, FsckRepaired: 1, Bug: 2},
	}
	if !reflect.DeepEqual(snap.Cells, wantCells) {
		t.Errorf("Snapshot cells = %+v\nwant %+v", snap.Cells, wantCells)
	}
	if h.Bugs() != 3 {
		t.Errorf("Bugs = %d, want 3", h.Bugs())
	}

	// Determinism: a second snapshot is byte-identical.
	a, _ := json.Marshal(snap)
	b2, _ := json.Marshal(h.Snapshot())
	if !bytes.Equal(a, b2) {
		t.Error("two snapshots of the same heatmap differ")
	}
}

func TestHeatmapWriteTable(t *testing.T) {
	h := NewHeatmap()
	h.Record("write(/f0)", 0, 4, VerdictB0)
	h.Record("write(/f0)", 0, 4, VerdictBug) // severity: B wins over 0
	h.Record("write(/f0)", 1, 4, VerdictFsckRepaired)
	h.Record("write(/f0)", 3, 4, VerdictB1)

	var buf bytes.Buffer
	h.Snapshot().WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "write(/f0) Br.1") {
		t.Errorf("table row missing or wrong glyphs:\n%s", out)
	}
	if !strings.Contains(out, "cols = write index 0..3") {
		t.Errorf("table header wrong:\n%s", out)
	}

	buf.Reset()
	HeatmapSnapshot{}.WriteTable(&buf)
	if !strings.Contains(buf.String(), "no crash points probed") {
		t.Errorf("empty table = %q", buf.String())
	}
}

package obs_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcfs/internal/obs"
	"mcfs/internal/obs/stream"
)

// These tests cover the Route variadic of MetricsMux: the live /events
// NDJSON feed and the /workers health document the mcfs CLI mounts
// next to /metrics.

func streamMux(bus *stream.Bus) *http.ServeMux {
	return obs.MetricsMux(func() any { return obs.New().Snapshot() },
		obs.Route{Pattern: "/events", Handler: stream.EventsHandler(bus)},
		obs.Route{Pattern: "/workers", Handler: stream.WorkersHandler(bus)})
}

func TestEventsRouteStreamsAndStopsOnDisconnect(t *testing.T) {
	bus := stream.New()
	srv := httptest.NewServer(streamMux(bus))
	defer srv.Close()

	// Publish before and after the connection: the subscriber attaches
	// on request, so only the later event arrives.
	bus.Publish(stream.Event{Kind: stream.KindWorkerStart, At: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	// The handler holds a live subscriber while the client is connected.
	deadline := time.Now().Add(10 * time.Second)
	for bus.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("/events never subscribed to the bus")
		}
		time.Sleep(time.Millisecond)
	}

	bus.Publish(stream.Event{Kind: stream.KindStep, At: 2, Op: "mkdir(/d0)", Depth: 1})
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading event line: %v", err)
	}
	var ev stream.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("event line %q did not decode: %v", line, err)
	}
	if ev.Kind != stream.KindStep || ev.Op != "mkdir(/d0)" {
		t.Errorf("streamed event = %+v, want the published step", ev)
	}

	// Disconnecting the client must tear the subscriber down — the bus
	// fans out to no one once the handler returns.
	cancel()
	deadline = time.Now().Add(10 * time.Second)
	for bus.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("/events handler leaked its subscriber: %d attached", bus.Subscribers())
		}
		bus.Publish(stream.Event{Kind: stream.KindStep}) // wake the select loop
		time.Sleep(time.Millisecond)
	}
}

func TestWorkersRouteReportsStaleWorkerUnhealthy(t *testing.T) {
	// Worker 2's last heartbeat is a second more than the staleness bound
	// behind worker 1's.
	frontier := 10 * time.Second
	bus := stream.New()
	bus.Publish(stream.Event{Kind: stream.KindWorkerHeartbeat, Worker: 1, At: frontier, Ops: 640})
	bus.Publish(stream.Event{Kind: stream.KindWorkerHeartbeat, Worker: 2, At: frontier - stream.DefaultStaleAfter - time.Second, Ops: 64})

	rec := httptest.NewRecorder()
	streamMux(bus).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/workers", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/workers status = %d", rec.Code)
	}
	var h stream.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/workers did not decode: %v", err)
	}
	if h.Frontier != frontier || h.StaleAfter != stream.DefaultStaleAfter || len(h.Workers) != 2 {
		t.Fatalf("health = %+v, want frontier %v, bound %v and 2 workers", h, frontier, stream.DefaultStaleAfter)
	}
	if h.Workers[0].Health != "healthy" {
		t.Errorf("worker 1 health = %q, want healthy", h.Workers[0].Health)
	}
	if h.Workers[1].Health != "unhealthy" {
		t.Errorf("worker 2 health = %q, want unhealthy (stale heartbeat)", h.Workers[1].Health)
	}
}

func TestStreamRoutesWithoutBusAnswer503(t *testing.T) {
	mux := streamMux(nil)
	for _, path := range []string{"/events", "/workers"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s without a bus = %d, want 503", path, rec.Code)
		}
	}
}

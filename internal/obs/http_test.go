package obs_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcfs/internal/obs"
)

// metricsDoc mirrors the CLI's /metrics document: the hub snapshot with
// the hub's phase profile grafted on as a "perf" section.
type metricsDoc struct {
	obs.Snapshot
	Perf *obs.Profile `json:"perf,omitempty"`
}

func perfMux(t *testing.T) *http.ServeMux {
	t.Helper()
	hub := obs.New()
	hub.Counter(obs.MetricOps).Add(42)

	var clock time.Duration
	hub.SetNow(func() time.Duration { return clock })
	clock += 3 * time.Millisecond
	hub.Record(obs.PhaseExecute, 3*time.Millisecond)
	hub.Observe(1, 1, 0, 0, 1)

	return obs.MetricsMux(func() any {
		snap := hub.Profile()
		doc := metricsDoc{Snapshot: hub.Snapshot()}
		if snap.Enabled() {
			doc.Perf = &snap
		}
		return doc
	})
}

func TestMetricsEndpointJSON(t *testing.T) {
	mux := perfMux(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Perf     *obs.Profile     `json:"perf"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics did not decode: %v", err)
	}
	if doc.Counters[obs.MetricOps] != 42 {
		t.Errorf("counter %s = %d, want 42", obs.MetricOps, doc.Counters[obs.MetricOps])
	}
	if doc.Perf == nil {
		t.Fatal("perf section missing from /metrics document")
	}
	exec := doc.Perf.Phases[obs.PhaseExecute]
	if exec.Count != 1 || exec.Sum != 3*time.Millisecond {
		t.Errorf("perf execute phase = count %d sum %v, want 1/3ms", exec.Count, exec.Sum)
	}
	if len(doc.Perf.Samples) != 1 {
		t.Errorf("perf samples = %d, want 1", len(doc.Perf.Samples))
	}
}

func TestMetricsEndpointOmitsIdlePerf(t *testing.T) {
	// A hub that never recorded phase work must not produce a perf
	// section — the document stays byte-compatible with perf-less runs.
	hub := obs.New()
	mux := obs.MetricsMux(func() any {
		snap := hub.Profile()
		doc := metricsDoc{Snapshot: hub.Snapshot()}
		if snap.Enabled() {
			doc.Perf = &snap
		}
		return doc
	})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("/metrics did not decode: %v", err)
	}
	if _, ok := raw["perf"]; ok {
		t.Error("idle perf section serialized; want omitted")
	}
}

func TestPprofRoutesRespond(t *testing.T) {
	// profile and trace block for the profiling window, so keep it tiny.
	mux := perfMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
		"/debug/pprof/profile?seconds=1",
		"/debug/pprof/trace?seconds=0.1",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s status = %d, want 200", path, resp.StatusCode)
		}
	}
}

package stream

import (
	"encoding/json"
	"io"
	"net/http"
)

// EventsHandler serves the bus as an NDJSON stream: one JSON event per
// line, flushed as events arrive, until the client disconnects. Each
// connection gets its own lossy subscriber (capacity per
// DefaultRingCapacity), so a slow client drops its own events and
// never backpressures the engine. A nil bus answers 503.
func EventsHandler(b *Bus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b == nil {
			http.Error(w, "event stream not enabled", http.StatusServiceUnavailable)
			return
		}
		sub := b.Subscribe(0)
		defer sub.Close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		_ = WriteNDJSON(w, sub, r.Context().Done()) // an error means the client left: no one to tell
	})
}

// WriteNDJSON writes the events sub receives to w, one JSON event per
// line, flushing w after each batch when it is an http.Flusher, until
// stop closes; it then writes what is still buffered and returns. It
// stops at, and returns, the first write error.
func WriteNDJSON(w io.Writer, sub *Subscriber, stop <-chan struct{}) error {
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for stopped := false; ; {
		for _, ev := range sub.Drain() {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if stopped {
			return nil
		}
		select {
		case <-stop:
			stopped = true
		case <-sub.C():
		}
	}
}

// WorkersHandler serves the bus's worker health table as JSON. A nil
// bus answers 503.
func WorkersHandler(b *Bus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b == nil {
			http.Error(w, "event stream not enabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b.Workers()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

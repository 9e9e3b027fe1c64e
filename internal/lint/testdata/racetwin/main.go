// The runtime twin of the atomicplain fixture: a sync/atomic function
// call beside a plain read of the same field, the pattern the analyzer
// rules out by flagging the call, arranged so the Go race detector
// provably catches it at runtime — evidence the rule guards a real
// race, not a style preference. The racetwin_test in internal/lint runs
// this under `go run -race` and asserts a DATA RACE report, and runs
// atomicplain over this tree and asserts the static findings, so the
// two verdicts can never drift apart silently.
package main

import (
	"fmt"
	"sync/atomic"
)

type counter struct {
	hits int64
}

func main() {
	c := &counter{}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100000; i++ {
			atomic.AddInt64(&c.hits, 1) // want "sync/atomic.AddInt64: use a typed atomic"
		}
		close(done)
	}()
	// Plain-read the field until the atomic writer finishes: the two
	// accesses are unordered, so the race detector must flag the pair.
	var last int64
	for {
		select {
		case <-done:
			fmt.Println("last observed:", last, "final:", atomic.LoadInt64(&c.hits)) // want "sync/atomic.LoadInt64: use a typed atomic"
			return
		default:
			last = c.hits
		}
	}
}

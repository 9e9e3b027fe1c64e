package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestAdvanceAndNow(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(3 * time.Millisecond)
	c.Advance(2 * time.Millisecond)
	if got := c.Now(); got != 5*time.Millisecond {
		t.Errorf("Now() = %v, want 5ms", got)
	}
}

func TestAdvanceIgnoresNonPositive(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	if got := c.Advance(-time.Second); got != time.Second {
		t.Errorf("Advance(-1s) returned %v, want 1s", got)
	}
	if got := c.Advance(0); got != time.Second {
		t.Errorf("Advance(0) returned %v, want 1s", got)
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Advance(time.Hour)
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("after Reset, Now() = %v", c.Now())
	}
}

// TestConcurrentAdvance: advances from many goroutines sum, and each
// returns a time of its own — the clock after that advance and before any
// other — so the returns of N advances of 1µs are 1µs..Nµs, each once.
func TestConcurrentAdvance(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	returned := make([][]time.Duration, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				returned[i] = append(returned[i], c.Advance(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	want := time.Duration(workers*perWorker) * time.Microsecond
	if got := c.Now(); got != want {
		t.Errorf("concurrent advance total = %v, want %v", got, want)
	}
	seen := make([]bool, workers*perWorker+1)
	for _, rs := range returned {
		for k, r := range rs {
			n := int(r / time.Microsecond)
			if r%time.Microsecond != 0 || n < 1 || n >= len(seen) || seen[n] {
				t.Fatalf("an advance returned %v, not a time of its own", r)
			}
			if k > 0 && r <= rs[k-1] {
				t.Fatalf("a goroutine's advances returned %v after %v", r, rs[k-1])
			}
			seen[n] = true
		}
	}
}

func TestStopwatch(t *testing.T) {
	c := New()
	c.Advance(time.Second)
	sw := Watch(c)
	c.Advance(250 * time.Millisecond)
	if got := sw.Elapsed(); got != 250*time.Millisecond {
		t.Errorf("Elapsed() = %v, want 250ms", got)
	}
}

func TestRate(t *testing.T) {
	if got := Rate(500, time.Second); got != 500 {
		t.Errorf("Rate(500, 1s) = %v", got)
	}
	if got := Rate(100, 0); got != 0 {
		t.Errorf("Rate over zero duration = %v, want 0", got)
	}
	if got := Rate(100, -time.Second); got != 0 {
		t.Errorf("Rate over negative duration = %v, want 0", got)
	}
}

func TestFormatRate(t *testing.T) {
	if got := FormatRate(228.64); got != "228.6 ops/s" {
		t.Errorf("FormatRate = %q", got)
	}
}

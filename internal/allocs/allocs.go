// Package allocs counts what a warm loop allocates, exactly, for the
// allocation laws. testing.AllocsPerRun divides by its run count, so it
// hides an allocation that a window makes once; Count reports it.
package allocs

import (
	"runtime"
	"time"
)

// Count returns the heap objects that runs calls of f allocate, after a
// collection and three unmeasured calls, read from the process's totals
// while one P runs. The totals are the process's, not the loop's, so
// Count first quiets what else would allocate inside the window: the
// collection leaves no cycle to finish, the calls fill again whatever it
// took back (a weak spare store), and the P's timer heap is made room
// for, since the background scavenger, going back to sleep after a
// collection, adds a timer to the heap of the P it ran on, and the
// runtime grows a heap the first time it is that full.
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var timers [8]*time.Timer
	for i := range timers {
		timers[i] = time.AfterFunc(time.Hour, func() {})
	}
	for _, t := range timers {
		t.Stop()
	}
	runtime.GC()
	for range 3 {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

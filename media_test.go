package mcfs

import (
	"runtime"
	"slices"
	"testing"
)

// TestMediaHoldWhatWasWritten is the session row of internal/blockdev's
// law of the same name: an ext2-vs-ext4 session explores depth 2 to the
// same states on 256 KiB devices as on 64 MiB ones, and the bigger
// devices grow the heap by at most their per-page metadata — a page
// table entry, a page-cache mark and a frame stamp per 4 KiB page — not
// by their images.
func TestMediaHoldWhatWasWritten(t *testing.T) {
	const small, big = 256 << 10, 64 << 20
	const perPage = 24 + 4 + 4
	run := func(size int64) (states [][16]byte, growth int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := NewSession(Options{Targets: []TargetSpec{{Kind: "ext2", DeviceSize: size}, {Kind: "ext4", DeviceSize: size}}, MaxDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if res.Err != nil || res.Bug != nil {
			t.Fatalf("%d-byte devices: %v, bug %v", size, res.Err, res.Bug)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		for _, st := range res.Resume.States {
			states = append(states, st)
		}
		slices.SortFunc(states, func(a, b [16]byte) int { return slices.Compare(a[:], b[:]) })
		return states, int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	smallStates, smallGrowth := run(small)
	bigStates, bigGrowth := run(big)
	if !slices.Equal(smallStates, bigStates) {
		t.Errorf("the 64 MiB devices explored %d states, the 256 KiB ones %d, or different ones", len(bigStates), len(smallStates))
	}
	if limit := int64(2 * (big - small) / 4096 * perPage); bigGrowth-smallGrowth > limit {
		t.Errorf("the 64 MiB devices grew the heap by %d bytes, the 256 KiB ones by %d: %d more, above the %d bytes of their per-page metadata",
			bigGrowth, smallGrowth, bigGrowth-smallGrowth, limit)
	} else {
		t.Logf("heap growth: %d bytes on 256 KiB devices, %d on 64 MiB ones (limit %d more)", smallGrowth, bigGrowth, limit)
	}
}

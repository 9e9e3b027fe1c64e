package mc

import "testing"

// CollideCrashKeys gives every crash point's memo key the same crc until
// the test ends, so only the byte compare tells two streams apart.
func CollideCrashKeys(t testing.TB) {
	t.Helper()
	setCrashSum(t, func([]byte) uint32 { return 0 })
}

// DisableCrashMemo gives every crash point's memo key a crc no other key
// has until the test ends, so every point misses and inspect judges it.
// Single-engine runs only: the keys are counted without a lock.
func DisableCrashMemo(t testing.TB) {
	t.Helper()
	var n uint32
	setCrashSum(t, func([]byte) uint32 { n++; return n })
}

func setCrashSum(t testing.TB, sum func([]byte) uint32) {
	old := crashSum
	crashSum = sum
	t.Cleanup(func() { crashSum = old })
}

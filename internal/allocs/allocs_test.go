package allocs

import "testing"

var sink []byte

// TestCountIsExact: a loop that allocates once a call counts once a
// call, and one that allocates nothing counts 0.
func TestCountIsExact(t *testing.T) {
	if n := Count(1000, func() { sink = make([]byte, 64) }); n != 1000 {
		t.Errorf("1000 calls that each allocate once counted %d", n)
	}
	buf := make([]byte, 64)
	if n := Count(1000, func() { sink = buf[:32] }); n != 0 {
		t.Errorf("1000 calls that allocate nothing counted %d", n)
	}
}

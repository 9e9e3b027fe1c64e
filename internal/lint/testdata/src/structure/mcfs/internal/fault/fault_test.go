package fault

import "testing"

func TestCap(t *testing.T) {
	args := []string{"-crash-points", "4"} // want "\"-crash-points\": every persisted window write"
	_ = args
}

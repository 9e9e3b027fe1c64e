package lint

import (
	"testing"
)

// TestTopoOrderDeterministic pins the loader's type-check order to a
// pure function of the (sorted) import structure. The call-graph layer
// made order load-bearing: object positions, the helpers' entry locks
// and diagnostic output all flow from it, so it must never depend on
// map iteration. (The maporder analyzer is dogfooded on loader.go
// itself via TestModuleIsClean; this test checks the output, not just
// the idiom.)
func TestTopoOrderDeterministic(t *testing.T) {
	imports := map[string][]string{
		"m/a": {"m/b", "m/c"},
		"m/b": {"m/d"},
		"m/c": {"m/d"},
		"m/d": {},
		"m/e": {},
	}
	want := []string{"m/d", "m/b", "m/c", "m/a", "m/e"}
	// Rebuild the map each round so Go's randomized iteration seeding
	// would surface any hidden map-order dependence.
	for round := 0; round < 50; round++ {
		in := map[string][]string{}
		for k, v := range imports {
			in[k] = append([]string(nil), v...)
		}
		got, err := topoOrder(in)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: got %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: order %v, want %v", round, got, want)
			}
		}
	}
}

func TestTopoOrderRejectsCycle(t *testing.T) {
	_, err := topoOrder(map[string][]string{
		"m/a": {"m/b"},
		"m/b": {"m/a"},
	})
	if err == nil {
		t.Fatal("import cycle not rejected")
	}
}

// TestLoadTreeOrderStable loads the golden fixture tree twice and
// requires identical package order — the end-to-end form of the
// guarantee TestTopoOrderDeterministic checks in isolation.
func TestLoadTreeOrderStable(t *testing.T) {
	load := func() []string {
		// The errnodrop fixture is a multi-package tree (kernelstub +
		// its user), so the topo order actually has edges to get wrong.
		pkgs, err := LoadTree("testdata/src/errnodrop", "")
		if err != nil {
			t.Fatalf("LoadTree: %v", err)
		}
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		return paths
	}
	first := load()
	if len(first) == 0 {
		t.Fatal("fixture tree loaded no packages")
	}
	for round := 0; round < 3; round++ {
		again := load()
		if len(again) != len(first) {
			t.Fatalf("round %d: %v vs %v", round, again, first)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("round %d: order drifted: %v vs %v", round, again, first)
			}
		}
	}
}

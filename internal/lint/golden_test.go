package lint

import (
	"path/filepath"
	"slices"
	"testing"
)

// runGolden runs the analyzers over one fixture tree and fails on any
// mismatch between diagnostics and `// want "rx"` expectations. Each
// fixture seeds the bug class its analyzer exists for, so reintroducing
// one (or weakening an analyzer below it) fails go test.
func runGolden(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	problems, err := CheckGolden(filepath.Join("testdata", "src", fixture), analyzers...)
	if err != nil {
		t.Fatalf("CheckGolden(%s): %v", fixture, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestCheckpointLeakGolden(t *testing.T) {
	runGolden(t, "checkpointleak", NewCheckpointLeak())
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, "maporder", NewMapOrder())
}

func TestWalltimeGolden(t *testing.T) {
	// The fixture's simclock subpackage plays the allowlisted virtual
	// clock (import paths in a rootless fixture tree are dir-relative).
	runGolden(t, "walltime", newRules("walltime", "", walltimeRules("simclock")))
}

func TestErrnoDropGolden(t *testing.T) {
	runGolden(t, "errnodrop", NewErrnoDrop(ErrnoDropConfig{
		ErrorCallPkgPrefixes: []string{"kernelstub"},
	}))
}

func TestNilObsGolden(t *testing.T) {
	runGolden(t, "nilobs", NewNilObs(NilObsConfig{
		// Reporter is configured but not declared: config drift.
		Targets: map[string][]string{"obsstub": {"Hub", "Reporter"}},
	}))
}

func TestLockOrderGolden(t *testing.T) {
	runGolden(t, "lockorder", NewLocks())
}

func TestGuardedByGolden(t *testing.T) {
	runGolden(t, "guardedby", NewLocks())
}

func TestAtomicPlainGolden(t *testing.T) {
	runGolden(t, "atomicplain", NewAtomicPlain())
}

func TestLockBalanceGolden(t *testing.T) {
	runGolden(t, "lockbalance", NewLocks())
}

func TestLocksGolden(t *testing.T) {
	runGolden(t, "locks", NewLocks())
}

func TestUnusedIgnoreGolden(t *testing.T) {
	// The unusedignore check is framework-level: it runs inside Run for
	// whatever analyzer set is active. The fixture uses walltime as the
	// suppressed analyzer.
	runGolden(t, "unusedignore", NewWalltime())
}

func TestStructureGolden(t *testing.T) {
	// The fixture lays stub packages out at the rows' real import paths
	// (mcfs/internal/mc, ...), with one mutant per row.
	runGolden(t, "structure", NewStructure())

	// Every row has a mutant in the fixture: each one alone reports.
	pkgs, err := LoadTree(filepath.Join("testdata", "src", "structure"), "")
	if err != nil {
		t.Fatal(err)
	}
	for r := range structureRules {
		diags := Run(pkgs, []*Analyzer{newRules("structure", "", structureRules[r:r+1])})
		if !slices.ContainsFunc(diags, func(d Diagnostic) bool { return d.Analyzer == "structure" }) {
			t.Errorf("structure row %d (%q) has no mutant in the fixture", r, structureRules[r].why)
		}
	}
}

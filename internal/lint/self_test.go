package lint

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestModuleIsClean runs the full production suite over this module —
// the same check `mcfslint ./...` and scripts/check.sh perform — so a
// regression in any checked invariant fails `go test ./...`, not just
// the lint gate.
func TestModuleIsClean(t *testing.T) {
	diags := Run(loadModule(t), Analyzers())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

var loaded struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule loads this module once for every test that reads it.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	loaded.once.Do(func() { loaded.pkgs, loaded.err = LoadModule(".") })
	if loaded.err != nil {
		t.Fatalf("LoadModule: %v", loaded.err)
	}
	if len(loaded.pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; loader is missing the tree", len(loaded.pkgs))
	}
	return loaded.pkgs
}

// TestRuleScopesExist fails a row that watches nothing: every scope of
// every row names a package, a file or a function the module has, and
// every package an exists row looks for is gone. A renamed function
// would otherwise leave its row silently empty.
func TestRuleScopesExist(t *testing.T) {
	pkgs := loadModule(t)
	have := map[string]bool{}
	for _, pkg := range pkgs {
		have[pkg.Path] = true
		for _, f := range append(pkg.Files[:len(pkg.Files):len(pkg.Files)], pkg.Tests...) {
			have[pkg.Path+"/"+filepath.Base(pkg.Fset.Position(f.Pos()).Filename)] = true
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					have[funcScope(pkg.Path, fd)] = true
				}
			}
		}
	}
	subtree := func(root string) bool {
		for _, pkg := range pkgs {
			if within(root, pkg.Path, "", "") {
				return true
			}
		}
		return false
	}
	for _, row := range append(slices.Clone(structureRules), walltimeRules(clockPkg)...) {
		for _, s := range append(slices.Clone(row.in), row.not...) {
			if strings.HasSuffix(s, "/...") && !subtree(s) || !strings.HasSuffix(s, "/...") && !have[s] {
				t.Errorf("row %q: scope %s names nothing in the module", row.why, s)
			}
		}
		for _, p := range row.match.pkgs {
			if have[p] {
				t.Errorf("row %q: package %s exists", row.why, p)
			}
		}
	}
}

// TestAnalyzerSuite pins the registered suite; scripts/check.sh checks
// mcfslint's -list and -json output against the same eight names.
func TestAnalyzerSuite(t *testing.T) {
	want := []string{"checkpointleak", "maporder", "walltime", "errnodrop", "nilobs",
		"locks", "atomicplain", "structure"}
	var got []string
	for _, a := range Analyzers() {
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
}

// TestWriteJSON covers the -json output contract: an indented array,
// stable field names, and an empty array (never null) with no findings.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON(nil): %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("WriteJSON(nil) = %q, want []", got)
	}

	diags := []Diagnostic{
		{Analyzer: "walltime", File: "x.go", Line: 3, Col: 9, Message: "time.Now reads the wall clock"},
		{Analyzer: "maporder", File: "y.go", Line: 7, Col: 2, Message: "append to \"keys\" inside range over map"},
	}
	buf.Reset()
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, field := range []string{`"analyzer"`, `"file"`, `"line"`, `"col"`, `"message"`} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("JSON output missing field %s:\n%s", field, buf.String())
		}
	}
	var back []Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, diags) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, diags)
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package in the tree under
// analysis.
type Package struct {
	// Path is the package's import path within the tree.
	Path string
	// Dir is the absolute directory holding the package's files.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Tests are the directory's _test.go files, parsed but not
	// type-checked: the rule tables read their syntax.
	Tests []*ast.File
	Types *types.Package
	Info  *types.Info
}

// chainImporter resolves imports from the tree under analysis first and
// falls back to the toolchain for everything else (stdlib). The gc
// importer (compiled export data) is tried before the source importer,
// which works even with a cold build cache but is slower.
type chainImporter struct {
	local  map[string]*types.Package
	gc     types.Importer
	source types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.local[path]; ok {
		return pkg, nil
	}
	if pkg, err := c.gc.Import(path); err == nil {
		return pkg, nil
	}
	return c.source.Import(path)
}

// LoadModule locates the enclosing Go module (walking up from root to
// find go.mod) and loads every non-test package in it. Directories named
// testdata or vendor, and hidden directories, are skipped.
func LoadModule(root string) ([]*Package, error) {
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	return LoadTree(modRoot, modPath)
}

func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// topoOrder returns a dependencies-first ordering of the packages in
// imports (package path → sorted intra-tree deps). The result is a
// pure function of its input: roots are visited in sorted order and
// each node's dependency list is required pre-sorted, so the
// type-check order — and therefore every downstream artifact (object
// positions, diagnostic order, the call graph) — never depends on map
// iteration. The maporder analyzer is dogfooded on this file; the
// collect-then-sort shape here is what it enforces module-wide.
func topoOrder(imports map[string][]string) ([]string, error) {
	paths := make([]string, 0, len(imports))
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		for _, dep := range imports[p] {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// LoadTree parses and type-checks every non-test package under root,
// and parses its _test.go files.
// Import paths are formed as modPath + "/" + relative directory (or just
// the relative directory when modPath is empty, as the golden-test
// harness uses for testdata trees).
func LoadTree(root, modPath string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	type rawPkg struct {
		path    string
		dir     string
		files   []*ast.File
		tests   []*ast.File
		imports map[string]bool
	}
	raw := map[string]*rawPkg{}

	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %w", path, err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		importPath := filepath.ToSlash(rel)
		if importPath == "." {
			importPath = ""
		}
		if modPath != "" {
			if importPath == "" {
				importPath = modPath
			} else {
				importPath = modPath + "/" + importPath
			}
		}
		if importPath == "" {
			// A file directly under a rootless tree has no import path;
			// give it one so it can still be analyzed.
			importPath = "main"
		}
		p := raw[importPath]
		if p == nil {
			p = &rawPkg{path: importPath, dir: dir, imports: map[string]bool{}}
			raw[importPath] = p
		}
		if strings.HasSuffix(path, "_test.go") {
			p.tests = append(p.tests, file)
			return nil
		}
		p.files = append(p.files, file)
		for _, imp := range file.Imports {
			p.imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Topologically order packages by their intra-tree imports so each
	// package's dependencies are type-checked before it.
	imports := make(map[string][]string, len(raw))
	for p, rp := range raw {
		deps := make([]string, 0, len(rp.imports))
		for dep := range rp.imports {
			if _, ours := raw[dep]; ours {
				deps = append(deps, dep)
			}
		}
		sort.Strings(deps)
		imports[p] = deps
	}
	order, err := topoOrder(imports)
	if err != nil {
		return nil, err
	}

	imp := &chainImporter{
		local:  map[string]*types.Package{},
		gc:     importer.ForCompiler(fset, "gc", nil),
		source: importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, path := range order {
		rp := raw[path]
		// Deterministic file order: the walk already visits files sorted,
		// but make it explicit — analyzer output order depends on it.
		sort.Slice(rp.files, func(i, j int) bool {
			return fset.Position(rp.files[i].Pos()).Filename < fset.Position(rp.files[j].Pos()).Filename
		})
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, rp.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
		}
		imp.local[path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  path,
			Dir:   rp.dir,
			Fset:  fset,
			Files: rp.files,
			Tests: rp.tests,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// The rule engine behind structure, walltime and atomicplain: each is a
// table of rows (structure.go), and a row says that within its scope at
// most max nodes of one kind may appear.

// rule is one row of a rule table.
type rule struct {
	// in and not are scopes: a package ("mcfs/internal/mc"), a subtree
	// ("mcfs/internal/fs/..."), a file ("mcfs/internal/mc/probe.go") or
	// a function or method ("mcfs/internal/kernel.Kernel.Mount"). A node
	// is checked when some in scope holds it, or in is empty, and no
	// not scope does.
	in, not []string
	// tests also reads the _test.go files, by syntax alone: the
	// matchers that need types see nothing there.
	tests bool
	// max is how many matches the scopes may hold; each match past it
	// is a finding.
	max   int
	match matcher
	// why is the finding's message; its %s is what matched.
	why string
}

// matcher reports each node n it matches, and what matched. info is
// nil in a _test.go file.
type matcher struct {
	match func(pkg *Package, info *types.Info, n ast.Node, report func(token.Pos, string))
	pkgs  []string // the packages an exists matcher looks for
}

// within reports whether scope s holds a node of file in package pkg
// inside function fn.
func within(s, pkg, file, fn string) bool {
	root, tree := strings.CutSuffix(s, "/...")
	return tree && strings.HasPrefix(pkg+"/", root+"/") || s == pkg || s == pkg+"/"+file || s == fn
}

func (r *rule) covers(pkg, file, fn string) bool {
	in := func(s string) bool { return within(s, pkg, file, fn) }
	return !slices.ContainsFunc(r.not, in) && (len(r.in) == 0 || slices.ContainsFunc(r.in, in))
}

// funcScope names a function declaration the way a scope does: its
// package, its receiver's type name for a method, and its name.
func funcScope(pkg string, d *ast.FuncDecl) string {
	if d.Recv != nil {
		recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
		pkg += "." + recv
	}
	return pkg + "." + d.Name.Name
}

// newRules builds the analyzer for one table. A row's count spans
// packages, so the table runs once, on the first pass, over every
// package of the run.
func newRules(name, doc string, rows []rule) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, NeedsModule: true, Run: func(p *Pass) {
		if p.pkg == p.Module.Pkgs[0] {
			checkRules(p, rows)
		}
	}}
}

func checkRules(p *Pass, rows []rule) {
	counts := make([]int, len(rows))
	var pkg *Package
	var info *types.Info
	var file, fn string
	reports := make([]func(token.Pos, string), len(rows))
	for r := range rows {
		reports[r] = func(pos token.Pos, what string) {
			if rows[r].covers(pkg.Path, file, fn) {
				if counts[r]++; counts[r] > rows[r].max {
					p.Reportf(pos, rows[r].why, what)
				}
			}
		}
	}
	visit := func(n ast.Node) bool {
		for r := range rows {
			if info != nil || rows[r].tests {
				rows[r].match.match(pkg, info, n, reports[r])
			}
		}
		return true
	}
	for _, pkg = range p.Module.Pkgs {
		for i, f := range append(pkg.Files[:len(pkg.Files):len(pkg.Files)], pkg.Tests...) {
			info, file, fn = pkg.Info, filepath.Base(p.Fset.Position(f.Pos()).Filename), ""
			if i >= len(pkg.Files) {
				info = nil
			}
			visit(f)
			for _, d := range f.Decls {
				fn = ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = funcScope(pkg.Path, fd)
				}
				ast.Inspect(d, visit)
			}
		}
	}
}

// decl matches a declaration of one of names: of a function, method,
// type, variable (:= included), constant, field or parameter.
func decl(names ...string) matcher { return declOf(false, names) }

// funcDecl matches a declaration of a function or method, or of a field
// of func type (an interface method included), named one of names.
func funcDecl(names ...string) matcher { return declOf(true, names) }

func declOf(funcs bool, names []string) matcher {
	return matcher{match: func(_ *Package, _ *types.Info, n ast.Node, report func(token.Pos, string)) {
		var ids []*ast.Ident
		fun := false
		switch n := n.(type) {
		case *ast.FuncDecl:
			ids, fun = []*ast.Ident{n.Name}, true
		case *ast.Field:
			_, fun = n.Type.(*ast.FuncType)
			ids = n.Names
		case *ast.TypeSpec:
			ids = []*ast.Ident{n.Name}
		case *ast.ValueSpec:
			ids = n.Names
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				if id, ok := e.(*ast.Ident); ok && n.Tok == token.DEFINE {
					ids = append(ids, id)
				}
			}
		}
		for _, id := range ids {
			if (fun || !funcs) && slices.Contains(names, id.Name) {
				report(id.Pos(), id.Name)
			}
		}
	}}
}

// uses matches a use of a function named by its types.Func.FullName (a
// call, a method value or a function value alike), or, for a name
// "path.*", of any package-level function of package path; what matched
// is then the function's bare name.
func uses(names ...string) matcher {
	return matcher{match: func(_ *Package, info *types.Info, n ast.Node, report func(token.Pos, string)) {
		if id, ok := n.(*ast.Ident); ok && info != nil {
			if fn, ok := info.Uses[id].(*types.Func); ok && slices.Contains(names, fn.FullName()) {
				report(id.Pos(), fn.FullName())
			} else if ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil && slices.Contains(names, fn.Pkg().Path()+".*") {
				report(id.Pos(), fn.Name())
			}
		}
	}}
}

// usesType matches a use of a type named by its package path and name
// ("sync.Pool"): in a declaration, a conversion or a composite literal.
func usesType(names ...string) matcher {
	return matcher{match: func(_ *Package, info *types.Info, n ast.Node, report func(token.Pos, string)) {
		if id, ok := n.(*ast.Ident); ok && info != nil {
			if tn, ok := info.Uses[id].(*types.TypeName); ok && tn.Pkg() != nil && slices.Contains(names, tn.Pkg().Path()+"."+tn.Name()) {
				report(id.Pos(), tn.Pkg().Path()+"."+tn.Name())
			}
		}
	}}
}

// str matches a string literal whose source text contains one of subs.
func str(subs ...string) matcher {
	return matcher{match: func(_ *Package, _ *types.Info, n ast.Node, report func(token.Pos, string)) {
		lit, ok := n.(*ast.BasicLit)
		if ok && lit.Kind == token.STRING && slices.ContainsFunc(subs, func(s string) bool { return strings.Contains(lit.Value, s) }) {
			report(lit.Pos(), lit.Value)
		}
	}}
}

// exists matches the package clause of each file of the packages.
func exists(paths ...string) matcher {
	return matcher{pkgs: paths, match: func(pkg *Package, _ *types.Info, n ast.Node, report func(token.Pos, string)) {
		if f, ok := n.(*ast.File); ok && slices.Contains(paths, pkg.Path) {
			report(f.Name.Pos(), "package "+pkg.Path)
		}
	}}
}

// imports matches an import of one of paths, under any name.
func imports(paths ...string) matcher {
	return matcher{match: func(_ *Package, _ *types.Info, n ast.Node, report func(token.Pos, string)) {
		if imp, ok := n.(*ast.ImportSpec); ok && slices.Contains(paths, strings.Trim(imp.Path.Value, `"`)) {
			report(imp.Pos(), "import of "+strings.Trim(imp.Path.Value, `"`))
		}
	}}
}

// comment matches a comment that contains sub.
func comment(sub string) matcher {
	return matcher{match: func(_ *Package, _ *types.Info, n ast.Node, report func(token.Pos, string)) {
		if f, ok := n.(*ast.File); ok {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, sub) {
						report(c.Pos(), sub)
					}
				}
			}
		}
	}}
}

// oneOf matches what any of ms matches.
func oneOf(ms ...matcher) matcher {
	one := matcher{match: func(pkg *Package, info *types.Info, n ast.Node, report func(token.Pos, string)) {
		for _, m := range ms {
			m.match(pkg, info, n, report)
		}
	}}
	for _, m := range ms {
		one.pkgs = append(one.pkgs, m.pkgs...)
	}
	return one
}

// goStmt matches a go statement.
var goStmt = matcher{match: func(_ *Package, _ *types.Info, n ast.Node, report func(token.Pos, string)) {
	if g, ok := n.(*ast.GoStmt); ok {
		report(g.Pos(), "go statement")
	}
}}

// makes matches a call of the make builtin whose type, seen through
// aliases and names, and arguments satisfy pred.
func makes(pred func(t types.Type, args []ast.Expr, info *types.Info) bool) matcher {
	return matcher{match: func(_ *Package, info *types.Info, n ast.Node, report func(token.Pos, string)) {
		if call, ok := n.(*ast.CallExpr); ok && info != nil && len(call.Args) > 0 {
			id, _ := call.Fun.(*ast.Ident)
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && pred(info.TypeOf(call.Args[0]).Underlying(), call.Args, info) {
				report(call.Pos(), types.ExprString(call))
			}
		}
	}}
}

// syncVar matches a variable, field or parameter of a type declared in
// package sync, or of a pointer to one.
var syncVar = matcher{match: func(_ *Package, info *types.Info, n ast.Node, report func(token.Pos, string)) {
	if id, ok := n.(*ast.Ident); ok && info != nil {
		if v, ok := info.Defs[id].(*types.Var); ok && inPkg(namedOf(v.Type()), "sync") {
			report(id.Pos(), id.Name+" "+types.TypeString(v.Type(), nil))
		}
	}
}}

// inPkg reports whether the named type t is declared in package path.
func inPkg(t *types.Named, path string) bool {
	return t != nil && t.Obj().Pkg() != nil && t.Obj().Pkg().Path() == path
}

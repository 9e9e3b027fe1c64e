package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Module is the whole-tree view behind the flow-sensitive analyzers:
// every function declaration with its CFG, a type-resolved static call
// graph (interface method calls widened to the implementers the loader
// found), the `// guarded by <field>` annotations, and the sync/atomic
// field index. It is built once per Run when any requested analyzer
// sets NeedsModule, and shared by every pass.
//
// Known imprecision, by design: calls through func values (callbacks,
// stored hooks) are not resolved, goroutine bodies are excluded from
// their spawning function's summaries (they do not run while the caller
// holds its locks), and a function whose CFG could not be modeled
// (goto) is skipped by the dataflow analyzers rather than analyzed
// wrongly.
type Module struct {
	Pkgs []*Package
	Fset *token.FileSet

	funcs map[*types.Func]*modFunc
	// order lists functions deterministically (by source position).
	order []*modFunc
	// guarded maps a struct field to its parsed guard annotation.
	guarded map[*types.Var]*guardSpec
	// namedTypes lists the tree's named types (position order) for
	// interface widening.
	namedTypes []*types.Named

	lockResult *modAnalysis // lazily built by LockAnalysis
	atomResult *atomicIndex // lazily built by atomicFields
	orderGraph *orderGraph  // lazily built by lockOrderGraph
}

// modFunc is one function or method declaration in the tree.
type modFunc struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	cfg  *funcCFG
}

// guardSpec is one `// guarded by <name>` field annotation.
type guardSpec struct {
	field *types.Var
	guard string // sibling field named in the annotation
	owner *types.Named
	pkg   *Package
	pos   token.Pos
}

var guardedByRe = regexp.MustCompile(`guarded\s+by\s+([A-Za-z_][A-Za-z0-9_]*)`)

// NewModule builds the module view over the loaded packages.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:    pkgs,
		funcs:   map[*types.Func]*modFunc{},
		guarded: map[*types.Var]*guardSpec{},
	}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if obj == nil {
						continue
					}
					mf := &modFunc{obj: obj, decl: d, pkg: pkg, cfg: buildCFG(d.Body)}
					m.funcs[obj] = mf
					m.order = append(m.order, mf)
				case *ast.GenDecl:
					m.collectTypeDecl(pkg, d)
				}
			}
		}
		m.collectNamedTypes(pkg)
	}
	sort.Slice(m.order, func(i, j int) bool {
		return m.order[i].decl.Pos() < m.order[j].decl.Pos()
	})
	sort.Slice(m.namedTypes, func(i, j int) bool {
		return m.namedTypes[i].Obj().Pos() < m.namedTypes[j].Obj().Pos()
	})
	return m
}

// collectTypeDecl records `// guarded by` annotations on struct fields.
func (m *Module) collectTypeDecl(pkg *Package, d *ast.GenDecl) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		tobj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
		var owner *types.Named
		if tobj != nil {
			owner, _ = tobj.Type().(*types.Named)
		}
		for _, field := range st.Fields.List {
			guard := guardAnnotation(field)
			if guard == "" {
				continue
			}
			for _, name := range field.Names {
				fv, _ := pkg.Info.Defs[name].(*types.Var)
				if fv == nil {
					continue
				}
				m.guarded[fv] = &guardSpec{
					field: fv,
					guard: guard,
					owner: owner,
					pkg:   pkg,
					pos:   name.Pos(),
				}
			}
		}
	}
}

// guardAnnotation extracts the guard field name from a struct field's
// doc or trailing comment, or "" if the field carries no annotation.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if mm := guardedByRe.FindStringSubmatch(cg.Text()); mm != nil {
			return mm[1]
		}
	}
	return ""
}

// collectNamedTypes gathers package-scope named types for interface
// widening, in deterministic (sorted-name) order.
func (m *Module) collectNamedTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	names := scope.Names() // already sorted by go/types
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				m.namedTypes = append(m.namedTypes, named)
			}
		}
	}
}

// GuardedFields returns the annotated fields in deterministic order.
func (m *Module) GuardedFields() []*guardSpec {
	specs := make([]*guardSpec, 0, len(m.guarded))
	for _, s := range m.guarded {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].pos < specs[j].pos })
	return specs
}

// resolveCallees resolves a call expression to the module functions it
// may invoke. Concrete calls resolve to at most one; a call through an
// interface method widens to that method on every module type that
// implements the interface. Calls through func values resolve to none.
func (m *Module) resolveCallees(pkg *Package, call *ast.CallExpr) []*modFunc {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if mf := m.funcs[fn]; mf != nil {
				return []*modFunc{mf}
			}
		}
	case *ast.SelectorExpr:
		sel := pkg.Info.Selections[fun]
		if sel == nil {
			// Package-qualified call: pkgname.Func.
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				if mf := m.funcs[fn]; mf != nil {
					return []*modFunc{mf}
				}
			}
			return nil
		}
		if sel.Kind() != types.MethodVal {
			return nil
		}
		fn, _ := sel.Obj().(*types.Func)
		if fn == nil {
			return nil
		}
		recv := sel.Recv()
		if iface, ok := recv.Underlying().(*types.Interface); ok {
			return m.widenInterfaceCall(iface, fn.Name())
		}
		if mf := m.funcs[fn]; mf != nil {
			return []*modFunc{mf}
		}
		// A promoted or generic method: try resolving by receiver's
		// named type.
		if named := namedOf(recv); named != nil {
			if mf := m.lookupMethod(named, fn.Name()); mf != nil {
				return []*modFunc{mf}
			}
		}
	}
	return nil
}

// widenInterfaceCall returns method name on every module named type
// implementing iface (checking pointer receivers too).
func (m *Module) widenInterfaceCall(iface *types.Interface, name string) []*modFunc {
	var out []*modFunc
	for _, named := range m.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		if mf := m.lookupMethod(named, name); mf != nil {
			out = append(out, mf)
		}
	}
	return out
}

func (m *Module) lookupMethod(named *types.Named, name string) *modFunc {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	if fn, ok := obj.(*types.Func); ok {
		return m.funcs[fn]
	}
	return nil
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// typeIDFor renders the stable type-level identity of a lock
// expression: "pkg.Type.field" for struct fields, "pkg.Func.name" for
// locals, "pkg.name" for package-level vars. Instances of one type
// share an ID — lock ordering is a property of the type graph.
func typeIDFor(pkg *Package, lockExpr ast.Expr) string {
	lockExpr = ast.Unparen(lockExpr)
	if sel, ok := lockExpr.(*ast.SelectorExpr); ok {
		if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if named := namedOf(s.Recv()); named != nil {
				return pkgName(named.Obj().Pkg()) + "." + named.Obj().Name() + "." + sel.Sel.Name
			}
		}
		// Package-qualified var: pkgname.Mu.
		if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil {
			return pkgName(v.Pkg()) + "." + v.Name()
		}
	}
	if id, ok := lockExpr.(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return pkgName(v.Pkg()) + "." + v.Name()
			}
			// Function-local mutex: qualify by the enclosing function.
			if fn := enclosingFuncName(pkg, id.Pos()); fn != "" {
				return pkgName(v.Pkg()) + "." + fn + "." + v.Name()
			}
			return pkgName(v.Pkg()) + "." + v.Name()
		}
	}
	return ""
}

func pkgName(p *types.Package) string {
	if p == nil {
		return "?"
	}
	return p.Name()
}

// enclosingFuncName finds the function declaration containing pos.
func enclosingFuncName(pkg *Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if !(f.FileStart <= pos && pos < f.FileEnd) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Pos() <= pos && pos <= fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}

// renderPath renders an ident/selector chain ("s.h.mu"); "" when the
// expression is not a plain chain (map index, call result, ...).
func renderPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := renderPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// rootObjOf resolves the leftmost identifier of a chain to its object.
func rootObjOf(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pkg.Info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

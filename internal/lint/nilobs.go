package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilObsConfig configures the nilobs analyzer.
type NilObsConfig struct {
	// Targets maps package import paths to the type names whose exported
	// pointer-receiver methods must be nil-receiver safe.
	Targets map[string][]string
}

// NewNilObs builds the nilobs analyzer.
//
// The observability layer's contract is that a component holding a nil
// *Hub (or any instrument resolved from one, or a nil journal *Recorder)
// pays one branch and nothing else — call sites are deliberately
// unguarded throughout the engine's hot path. A new method that touches a
// receiver field before checking for nil turns every uninstrumented run
// into a panic. The analyzer requires each exported pointer-receiver
// method on the configured types to either never dereference its
// receiver, or to guard first: `if r == nil { return ... }` (possibly
// `recv == nil || ...`), or the inverted `if r != nil { ... }` form with
// all dereferences inside. Calling the receiver's own methods is always
// allowed — those are verified independently. A configured type its
// package does not declare is itself a finding, so the configuration
// cannot drift silently from the code it guards.
func NewNilObs(cfg NilObsConfig) *Analyzer {
	a := &Analyzer{
		Name: "nilobs",
		Doc: "exported methods on the configured nil-safe types must guard the " +
			"receiver against nil before dereferencing it",
	}
	a.Run = func(pass *Pass) { runNilObs(pass, cfg) }
	return a
}

func runNilObs(pass *Pass, cfg NilObsConfig) {
	typeNames := cfg.Targets[pass.Pkg.Path()]
	if len(typeNames) == 0 {
		return
	}
	targets := map[string]bool{}
	for _, n := range typeNames {
		if _, ok := pass.Pkg.Scope().Lookup(n).(*types.TypeName); !ok {
			pass.Reportf(pass.Files[0].Name.Pos(), "configured nil-safe type %s is not declared in package %s", n, pass.Pkg.Path())
		}
		targets[n] = true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			recvObj, typeName := pointerReceiver(pass, fn)
			if recvObj == nil || !targets[typeName] {
				continue
			}
			checkNilGuard(pass, fn, recvObj, typeName)
		}
	}
}

// pointerReceiver returns the receiver object and its base type name when
// fn has a named pointer receiver, else (nil, "").
func pointerReceiver(pass *Pass, fn *ast.FuncDecl) (types.Object, string) {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil, ""
	}
	name := fn.Recv.List[0].Names[0]
	obj := pass.Info.Defs[name]
	if obj == nil {
		return nil, ""
	}
	ptr, ok := obj.Type().(*types.Pointer)
	if !ok {
		return nil, ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil, ""
	}
	return obj, named.Obj().Name()
}

func checkNilGuard(pass *Pass, fn *ast.FuncDecl, recv types.Object, typeName string) {
	for _, stmt := range fn.Body.List {
		if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Init == nil {
			switch guardKind(pass, ifs.Cond, recv) {
			case guardEq:
				if blockTerminates(ifs.Body) {
					// Everything after `if r == nil { return }` may
					// dereference freely.
					return
				}
			case guardNeq:
				// `if r != nil { ... }`: dereferences inside are safe;
				// the receiver is still unproven afterwards, keep going.
				continue
			}
		}
		if pos, ok := firstReceiverDeref(pass, stmt, recv); ok {
			pass.Reportf(pos,
				"method (*%s).%s dereferences its receiver before a nil guard: %s is documented nil-safe",
				typeName, fn.Name.Name, typeName)
			return
		}
	}
}

type guard int

const (
	guardNone guard = iota
	guardEq         // recv == nil (possibly || more)
	guardNeq        // recv != nil (possibly && more)
)

// guardKind classifies an if condition whose leftmost short-circuit
// operand compares the receiver with nil.
func guardKind(pass *Pass, cond ast.Expr, recv types.Object) guard {
	for {
		bin, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return guardNone
		}
		switch bin.Op {
		case token.LOR, token.LAND:
			cond = bin.X // leftmost operand decides: it evaluates first
			continue
		case token.EQL, token.NEQ:
			if !isNilCompare(pass, bin, recv) {
				return guardNone
			}
			if bin.Op == token.EQL {
				return guardEq
			}
			return guardNeq
		default:
			return guardNone
		}
	}
}

func isNilCompare(pass *Pass, bin *ast.BinaryExpr, recv types.Object) bool {
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.Info.ObjectOf(id) == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
}

func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	return terminates(b.List[len(b.List)-1])
}

// firstReceiverDeref finds a field access through the receiver (recv.f,
// *recv, recv[i]) inside n. Method calls on the receiver do not count —
// each target method is checked for nil-safety itself.
func firstReceiverDeref(pass *Pass, n ast.Node, recv types.Object) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			base, ok := n.X.(*ast.Ident)
			if !ok || pass.Info.ObjectOf(base) != recv {
				return true
			}
			if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				pos, found = n.Pos(), true
				return false
			}
		case *ast.StarExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.Info.ObjectOf(id) == recv {
				pos, found = n.Pos(), true
				return false
			}
		case *ast.IndexExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.Info.ObjectOf(id) == recv {
				pos, found = n.Pos(), true
				return false
			}
		}
		return true
	})
	return pos, found
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// locks checks the module's one lock discipline: a sync.Mutex or
// RWMutex is held over a lexical region. A region opens at an x.Lock()
// or x.RLock() statement and closes in one of two ways:
//
//   - by `defer x.Unlock()`, or a deferred func literal that unlocks x,
//     as the very next statement: the region runs to the end of the
//     function;
//   - by an x.Unlock() later in the same block, with no return, goto,
//     break or continue leaving the region in between. A panic may
//     leave it: deferred unlocks run on the unwind.
//
// Any other Lock or Unlock is a finding, so balance needs no
// control-flow graph. The locks held at a node are the regions that
// enclose it: a func literal runs under the regions around it, a go
// statement under none. On that held set:
//
//   - a field annotated `// guarded by mu` is read under a region on the
//     same instance's mu (same root object and path) and written under
//     its write lock. A base built fresh in the function needs none, nor
//     does the receiver of an unexported method whose every module call
//     site holds the lock on the mapped receiver (the migrateLocked
//     shape). The annotation must name a Mutex or RWMutex field of the
//     same struct;
//   - a region of B, or a call to a module function that locks B, inside
//     a region of A is an edge A→B of the order graph over lock types
//     ("visited.Set.mu"). An edge on a cycle is a potential deadlock.
//     Two instances of one type make no edge (shards are ordered by
//     index, which this check cannot see), and a nested lock of the same
//     instance is a certain deadlock.
//
// Calls through func values are not resolved, so they add no edge and
// no call site.

// NewLocks returns the locks analyzer. Call sites and the order graph
// span packages, so it runs once, on the first pass, over the module.
func NewLocks() *Analyzer {
	return &Analyzer{
		Name:        "locks",
		Doc:         "a lock is held over a lexical region that is balanced, guards its annotated fields and keeps one acyclic order",
		NeedsModule: true,
		Run: func(p *Pass) {
			if p.pkg == p.Module.Pkgs[0] {
				c := &lockCheck{p: p, m: p.Module, paired: map[*ast.CallExpr]*region{}}
				c.run()
			}
		},
	}
}

// region is one lock held over a lexical extent.
type region struct {
	root   types.Object // "s" in s.mu
	path   string       // "s.mu"
	typeID string       // "visited.Set.mu"
	rlock  bool
	pos    token.Pos // the Lock call
	end    token.Pos // its Unlock, or the end of the function
}

// lockKey pairs an Unlock with its Lock: the same mutex, the same mode.
type lockKey struct {
	root  types.Object
	path  string
	rlock bool
}

// lockEvent is a lock, a call or a guarded-field access in a function,
// with the regions held around it.
type lockEvent struct {
	pos  token.Pos
	held []*region
	inGo bool // in a go statement, where the function's entry locks are not held

	region  *region    // a lock: the region it opens
	callees []*modFunc // a call: the module functions it may invoke
	recv    ast.Expr   // a method call's receiver
	spec    *guardSpec // an access: the annotated field
	base    ast.Expr   // an access: "s" in s.count
	write   bool
}

// lockFunc is one function declaration's events.
type lockFunc struct {
	fn                     *modFunc
	recv                   types.Object // nil for a function
	locks, calls, accesses []lockEvent
}

type lockCheck struct {
	p *Pass
	m *Module
	// paired maps each Lock and Unlock call that opens or closes a
	// region to the region.
	paired  map[*ast.CallExpr]*region
	regions []*region
}

func (c *lockCheck) run() {
	for _, spec := range c.m.GuardedFields() {
		if !isMutexField(spec.owner, spec.guard) {
			owner := "?"
			if spec.owner != nil {
				owner = spec.owner.Obj().Name()
			}
			c.p.Reportf(spec.pos, "guarded-by annotation names %q, which is not a sync.Mutex or sync.RWMutex field of %s", spec.guard, owner)
		}
	}
	for _, pkg := range c.m.Pkgs {
		for _, f := range pkg.Files {
			c.scan(pkg, f, token.NoPos)
			ast.Inspect(f, func(n ast.Node) bool {
				op, x := lockOp(pkg.Info, n)
				switch {
				case op == "" || c.paired[n.(*ast.CallExpr)] != nil:
				case op == "Lock" || op == "RLock":
					c.p.Reportf(n.Pos(), "%s.%s() opens no region: defer its Unlock as the next statement, or Unlock it later in the same block", types.ExprString(x), op)
				default:
					c.p.Reportf(n.Pos(), "unlocking %s, which is not held by a region of this block", types.ExprString(x))
				}
				return true
			})
		}
	}
	fns := make([]*lockFunc, 0, len(c.m.order))
	for _, mf := range c.m.order {
		fns = append(fns, c.events(mf))
	}
	c.guarded(fns, entryLocks(fns))
	c.order(fns)
}

// lockOp returns the method a call makes on a sync.Mutex or RWMutex
// ("Lock", "RLock", "Unlock" or "RUnlock") and the mutex, or "".
func lockOp(info *types.Info, n ast.Node) (string, ast.Expr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isMutex(recv.Type()) {
		return "", nil
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), sel.X
	}
	return "", nil
}

func isMutex(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

func keyOf(pkg *Package, x ast.Expr, op string) lockKey {
	return lockKey{rootObjOf(pkg, x), types.ExprString(x), op == "RLock" || op == "RUnlock"}
}

// scan pairs the locks of every statement list under n. fnEnd ends the
// innermost function body, where a deferred unlock releases.
func (c *lockCheck) scan(pkg *Package, n ast.Node, fnEnd token.Pos) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				c.scan(pkg, n.Body, n.Body.End())
			}
			return false
		case *ast.FuncLit:
			c.scan(pkg, n.Body, n.Body.End())
			return false
		case *ast.BlockStmt:
			c.block(pkg, n.List, fnEnd)
		case *ast.CaseClause:
			c.block(pkg, n.Body, fnEnd)
		case *ast.CommClause:
			c.block(pkg, n.Body, fnEnd)
		}
		return true
	})
}

// block pairs one statement list's locks. A Lock whose next statement
// defers its unlock opens a region to fnEnd; any other Lock waits for
// the next Unlock of the same mutex and mode in the list, which closes
// the innermost open one.
func (c *lockCheck) block(pkg *Package, list []ast.Stmt, fnEnd token.Pos) {
	open := map[lockKey][]int{}
	for i, st := range list {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		op, x := lockOp(pkg.Info, es.X)
		if op == "" {
			continue
		}
		call, k := es.X.(*ast.CallExpr), keyOf(pkg, x, op)
		if op == "Lock" || op == "RLock" {
			if i+1 < len(list) {
				if unlock := deferredUnlock(pkg, list[i+1], k); unlock != nil {
					c.region(pkg, call, unlock, fnEnd)
					continue
				}
			}
			open[k] = append(open[k], i)
			continue
		}
		stack := open[k]
		if len(stack) == 0 {
			continue
		}
		j := stack[len(stack)-1]
		open[k] = stack[:len(stack)-1]
		r := c.region(pkg, list[j].(*ast.ExprStmt).X.(*ast.CallExpr), call, call.Pos())
		c.escapes(list[j+1:i], r)
	}
}

// deferredUnlock returns the unlock of k that st defers, directly or in
// a deferred func literal, or nil.
func deferredUnlock(pkg *Package, st ast.Stmt, k lockKey) *ast.CallExpr {
	d, ok := st.(*ast.DeferStmt)
	if !ok {
		return nil
	}
	var body ast.Node = d.Call
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	}
	var unlock *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if op, x := lockOp(pkg.Info, n); unlock == nil && (op == "Unlock" || op == "RUnlock") && keyOf(pkg, x, op) == k {
			unlock = n.(*ast.CallExpr)
		}
		return unlock == nil
	})
	return unlock
}

// region records the region that lock opens and unlock closes.
func (c *lockCheck) region(pkg *Package, lock, unlock *ast.CallExpr, end token.Pos) *region {
	op, x := lockOp(pkg.Info, lock)
	r := &region{
		root:   rootObjOf(pkg, x),
		path:   types.ExprString(x),
		typeID: typeIDFor(pkg, x),
		rlock:  op == "RLock",
		pos:    lock.Pos(),
		end:    end,
	}
	c.paired[lock], c.paired[unlock] = r, r
	c.regions = append(c.regions, r)
	return r
}

// escapes reports each statement of a region's body that leaves it
// before its Unlock: a return, or a goto, break or continue whose
// target lies outside the body.
func (c *lockCheck) escapes(body []ast.Stmt, r *region) {
	labels := map[string]bool{}
	for _, st := range body {
		ast.Inspect(st, func(n ast.Node) bool {
			if l, ok := n.(*ast.LabeledStmt); ok {
				labels[l.Label.Name] = true
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	}
	for _, st := range body {
		var stack []ast.Node // the body's statements enclosing n
		ast.Inspect(st, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if _, lit := n.(*ast.FuncLit); lit {
				return false
			}
			if how := leaves(n, stack, labels); how != "" {
				c.p.Reportf(n.Pos(), "%s leaves the %s region (locked at line %d) before its Unlock", how, r.path, c.p.Fset.Position(r.pos).Line)
			}
			stack = append(stack, n)
			return true
		})
	}
}

// leaves names the statement when n transfers control out of a region
// body, given the body's statements enclosing n and its labels.
func leaves(n ast.Node, stack []ast.Node, labels map[string]bool) string {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		return "return"
	case *ast.BranchStmt:
		if n.Tok == token.FALLTHROUGH {
			return ""
		}
		if n.Label != nil {
			if labels[n.Label.Name] {
				return ""
			}
			return n.Tok.String()
		}
		for _, s := range stack {
			switch s.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return ""
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if n.Tok == token.BREAK {
					return ""
				}
			}
		}
		return n.Tok.String()
	}
	return ""
}

// events walks one function declaration for its locks, its calls into
// the module and its accesses to annotated fields, each with the
// regions held around it.
func (c *lockCheck) events(mf *modFunc) *lockFunc {
	f := &lockFunc{fn: mf}
	if recv := mf.decl.Recv; recv != nil && len(recv.List[0].Names) == 1 {
		f.recv = mf.pkg.Info.Defs[recv.List[0].Names[0]]
	}
	var mine []*region
	for _, r := range c.regions {
		if mf.decl.Pos() <= r.pos && r.pos < mf.decl.End() {
			mine = append(mine, r)
		}
	}
	info, writes := mf.pkg.Info, writeTargets(mf.decl.Body)
	var walk func(n ast.Node, floor token.Pos)
	walk = func(n ast.Node, floor token.Pos) {
		ast.Inspect(n, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				walk(g.Call, g.Pos())
				return false
			}
			if n == nil {
				return true
			}
			ev := lockEvent{pos: n.Pos(), inGo: floor != mf.decl.Pos()}
			for _, r := range mine {
				if floor <= r.pos && r.pos < ev.pos && ev.pos < r.end {
					ev.held = append(ev.held, r)
				}
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if r := c.paired[n]; r != nil && r.pos == n.Pos() {
					ev.region = r
					f.locks = append(f.locks, ev)
				} else if ev.callees = c.m.resolveCallees(mf.pkg, n); len(ev.callees) > 0 {
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
						ev.recv = sel.X
					}
					f.calls = append(f.calls, ev)
				}
			case *ast.SelectorExpr:
				if v, ok := info.Uses[n.Sel].(*types.Var); ok && c.m.guarded[v] != nil {
					ev.pos, ev.spec, ev.base, ev.write = n.Sel.Pos(), c.m.guarded[v], n.X, writes[n]
					f.accesses = append(f.accesses, ev)
				}
			}
			return true
		})
	}
	walk(mf.decl.Body, mf.decl.Pos())
	return f
}

// writeTargets returns the selectors a body writes: assigned,
// incremented, address-taken or deleted from, through any index, slice
// or dereference.
func writeTargets(body ast.Node) map[*ast.SelectorExpr]bool {
	writes := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				writes[x] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				mark(n.Args[0])
			}
		}
		return true
	})
	return writes
}

// entryLocks maps each unexported method to the locks that every module
// call site holds on its receiver: a path relative to the receiver
// (".mu") to whether only its read lock is held. It is iterated to a
// fixpoint from no locks held, so a helper called only from helpers
// inherits what their callers hold, and a recursive call needs its own
// region.
func entryLocks(fns []*lockFunc) map[*types.Func]map[string]bool {
	type site struct {
		caller *lockFunc
		ev     *lockEvent
	}
	sites := map[*types.Func][]site{}
	for _, f := range fns {
		for i := range f.calls {
			for _, callee := range f.calls[i].callees {
				if callee.decl.Recv != nil && !callee.obj.Exported() {
					sites[callee.obj] = append(sites[callee.obj], site{f, &f.calls[i]})
				}
			}
		}
	}
	// The least fixpoint does not depend on the order helpers are
	// visited in.
	entry := map[*types.Func]map[string]bool{}
	for changed := true; changed; {
		changed = false
		for h, hs := range sites {
			var all map[string]bool
			for i, s := range hs {
				held := receiverLocks(s.caller, s.ev, entry)
				if i == 0 {
					all = held
					continue
				}
				for k, rlock := range all {
					if r, ok := held[k]; ok {
						all[k] = rlock || r
					} else {
						delete(all, k)
					}
				}
			}
			if !maps.Equal(all, entry[h]) {
				entry[h], changed = all, true
			}
		}
	}
	return entry
}

// receiverLocks returns the locks held at a method call on its
// receiver, relative to it: the regions around the call, and the
// caller's entry locks when the receiver hangs off the caller's.
func receiverLocks(caller *lockFunc, ev *lockEvent, entry map[*types.Func]map[string]bool) map[string]bool {
	held := map[string]bool{}
	if ev.recv == nil {
		return held
	}
	prefix, root := types.ExprString(ev.recv), rootObjOf(caller.fn.pkg, ev.recv)
	add := func(path string, rlock bool) {
		if rel, ok := strings.CutPrefix(path, prefix+"."); ok {
			if r, seen := held["."+rel]; !seen || r {
				held["."+rel] = rlock
			}
		}
	}
	for _, r := range ev.held {
		if r.root == root {
			add(r.path, r.rlock)
		}
	}
	if root != nil && root == caller.recv && !ev.inGo {
		for rel, rlock := range entry[caller.fn.obj] {
			add(root.Name()+rel, rlock)
		}
	}
	return held
}

// guarded reports each access to an annotated field that no region,
// entry lock or fresh base covers.
func (c *lockCheck) guarded(fns []*lockFunc, entry map[*types.Func]map[string]bool) {
	for _, f := range fns {
		var fresh map[types.Object]bool
		for _, ev := range f.accesses {
			root := rootObjOf(f.fn.pkg, ev.base)
			want := types.ExprString(ev.base) + "." + ev.spec.guard
			rlock, held := false, false
			for _, r := range ev.held {
				if r.root == root && r.path == want && (!held || rlock) {
					rlock, held = r.rlock, true
				}
			}
			if !held && root != nil && root == f.recv && !ev.inGo {
				rlock, held = entry[f.fn.obj][want[len(root.Name()):]]
			}
			if !held {
				if fresh == nil {
					fresh = freshLocals(f.fn.pkg.Info, f.fn.decl)
				}
				if fresh[root] {
					continue
				}
			}
			field := ev.spec.field.Name()
			if ev.spec.owner != nil {
				field = ev.spec.owner.Obj().Name() + "." + field
			}
			switch {
			case !held && ev.write:
				c.p.Reportf(ev.pos, "write to %s (guarded by %s) without holding %s", field, ev.spec.guard, want)
			case !held:
				c.p.Reportf(ev.pos, "read %s (guarded by %s) without holding %s", field, ev.spec.guard, want)
			case ev.write && rlock:
				c.p.Reportf(ev.pos, "write to %s (guarded by %s) while holding only the read lock %s", field, ev.spec.guard, want)
			}
		}
	}
}

// order reports each nested lock of the same instance, and each edge of
// the lock-order graph that lies on a cycle, at its first witness.
func (c *lockCheck) order(fns []*lockFunc) {
	// acquires: the lock types a function takes, itself or through the
	// module functions it calls, outside go statements.
	acquires := map[*types.Func]map[string]bool{}
	for _, f := range fns {
		acquires[f.fn.obj] = map[string]bool{}
		for _, ev := range f.locks {
			if !ev.inGo && ev.region.typeID != "" {
				acquires[f.fn.obj][ev.region.typeID] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			for _, ev := range f.calls {
				for _, callee := range ev.callees {
					for id := range acquires[callee.obj] {
						if !ev.inGo && !acquires[f.fn.obj][id] {
							acquires[f.fn.obj][id], changed = true, true
						}
					}
				}
			}
		}
	}

	type edge struct{ from, to string }
	witness := map[edge]token.Pos{}
	add := func(from, to string, pos token.Pos) {
		e := edge{from, to}
		if old, ok := witness[e]; from != "" && to != "" && from != to && (!ok || pos < old) {
			witness[e] = pos
		}
	}
	for _, f := range fns {
		for _, ev := range f.locks {
			for _, h := range ev.held {
				if h.root == ev.region.root && h.path == ev.region.path {
					c.p.Reportf(ev.pos, "re-acquiring %s while already holding it deadlocks (non-reentrant mutex)", ev.region.typeID)
				}
				add(h.typeID, ev.region.typeID, ev.pos)
			}
		}
		for _, ev := range f.calls {
			for _, h := range ev.held {
				for _, callee := range ev.callees {
					for id := range acquires[callee.obj] {
						add(h.typeID, id, ev.pos)
					}
				}
			}
		}
	}
	next := map[string][]string{}
	for e := range witness {
		next[e.from] = append(next[e.from], e.to)
	}
	for _, to := range next {
		sort.Strings(to)
	}
	for e, pos := range witness {
		if back := lockPath(next, e.to, e.from, map[string]bool{}); back != nil {
			cycle := strings.Join(append([]string{e.from}, back...), " -> ")
			c.p.Reportf(pos, "acquiring %s while holding %s completes a lock-order cycle (%s)", e.to, e.from, cycle)
		}
	}
}

// lockPath returns a path of lock types from one to another in the
// order graph, both ends included, or nil when to is unreachable.
func lockPath(next map[string][]string, from, to string, seen map[string]bool) []string {
	if from == to {
		return []string{to}
	}
	seen[from] = true
	for _, n := range next[from] {
		if seen[n] {
			continue
		}
		if p := lockPath(next, n, to, seen); p != nil {
			return append([]string{from}, p...)
		}
	}
	return nil
}

// isMutexField reports whether owner has a sync.Mutex or RWMutex field
// named name.
func isMutexField(owner *types.Named, name string) bool {
	if owner == nil {
		return false
	}
	field, _, _ := types.LookupFieldOrMethod(owner, false, owner.Obj().Pkg(), name)
	v, ok := field.(*types.Var)
	return ok && v.IsField() && isMutex(v.Type())
}

// freshLocals collects the local variables a function assigns from a
// composite literal or new(): values under construction that no other
// goroutine can reach yet.
func freshLocals(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	record := func(lhs, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && isFreshExpr(rhs) {
			if obj := info.ObjectOf(id); obj != nil {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					record(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					record(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether e constructs a new value: &T{...},
// T{...} or new(T).
func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

package lint

import (
	"go/ast"
	"go/types"
)

// atomicplain holds the module's typed-atomics rule: no code uses a
// sync/atomic *function* (atomic.AddInt64(&c.n, 1), atomic.LoadUint64,
// ...). A field shared between goroutines is an atomic.Int64,
// atomic.Uint64, atomic.Pointer[T] and so on, and the methods of those
// types stay allowed. They are the only way to reach the value, so the
// type checker rules out a plain access racing with an atomic one, and
// `go vet`'s copylocks check rejects a plain copy (y := c.n). Neither
// sees a zero-literal assignment (c.n = atomic.Int64{}); see DESIGN.md,
// "Static analysis".

// NewAtomicPlain returns the atomicplain analyzer.
func NewAtomicPlain() *Analyzer {
	return &Analyzer{
		Name: "atomicplain",
		Doc:  "sync/atomic functions are forbidden: a shared field is a typed atomic, reached only through its methods",
		Run:  runAtomicPlain,
	}
}

func runAtomicPlain(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(id.Pos(), "sync/atomic.%s: use a typed atomic (atomic.Int64, ...), so no plain access can race with it", fn.Name())
			}
			return true
		})
	}
}

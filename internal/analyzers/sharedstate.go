package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sharedstate is the compile-time side of the parallel runs' determinism
// contract. The fleet's epoch loop serves every shard's window concurrently
// between epoch boundaries, mtsim runs each tenant's solo run beside the
// shared one, and the paper suite renders its experiments side by side; the
// byte-identical-report guarantee holds only if each of those bodies
// touches nothing but its own state and its arguments. The
// GOMAXPROCS-matrix equivalence tests prove that dynamically for the
// configurations they drive; sharedstate gates the source itself. A
// function opts in by carrying //flatflash:lp in its doc comment, and every
// construct that reaches shared mutable state is flagged:
//
//	package-level variable reads/writes (error sentinels may be read —
//	comparing err == ErrX is immutable by convention)
//	go statements (an LP body is one goroutine by contract)
//	channel send/receive/range/select (state crosses between LP bodies
//	only at the barrier, on the calling goroutine)
//	sync and sync/atomic calls (a lock order is a nondeterministic order)
//
// Calls into other functions are not traced; annotate the callee if it runs
// LP-side. A construct that is provably confined can be kept under
// //lint:ignore sharedstate <reason>.

var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc: "in //flatflash:lp functions, flag shared mutable state: package-level " +
		"variables, go statements, channel operations, sync/atomic calls",
	Run: runSharedState,
}

const lpDirective = "//flatflash:lp"

func runSharedState(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, lpDirective) {
				continue
			}
			p.checkLPBody(fd.Body)
		}
	}
}

func (p *Pass) checkLPBody(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		p.checkLPNode(n, stack)
		stack = append(stack, n)
		return true
	})
}

func (p *Pass) checkLPNode(n ast.Node, stack []ast.Node) {
	switch e := n.(type) {
	case *ast.GoStmt:
		p.Reportf(e.Pos(), "go statement in LP body: an LP body is one goroutine; concurrency belongs to the worker pool")
	case *ast.SendStmt:
		p.Reportf(e.Pos(), "channel send in LP body: state crosses LP bodies only at the barrier, not through channels")
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			p.Reportf(e.Pos(), "channel receive in LP body: state crosses LP bodies only at the barrier, not through channels")
		}
	case *ast.SelectStmt:
		p.Reportf(e.Pos(), "select in LP body: state crosses LP bodies only at the barrier, not through channels")
	case *ast.RangeStmt:
		if t := p.Info.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				p.Reportf(e.Pos(), "range over channel in LP body: state crosses LP bodies only at the barrier, not through channels")
			}
		}
	case *ast.CallExpr:
		p.checkLPCall(e)
	case *ast.Ident:
		p.checkLPIdent(e, stack)
	}
}

// checkLPCall flags calls that resolve into sync or sync/atomic — package
// functions and methods alike (a *sync.Mutex Lock resolves to a *types.Func
// whose Pkg is "sync").
func (p *Pass) checkLPCall(call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "sync", "sync/atomic":
		p.Reportf(call.Pos(), "%s.%s in LP body: a lock or atomic order is a nondeterministic order; keep state LP-local",
			fn.Pkg().Name(), fn.Name())
	}
}

// checkLPIdent flags identifiers that resolve to package-level variables.
// Reads of error-typed variables stay legal: sentinel errors are written
// once at init and only ever compared.
func (p *Pass) checkLPIdent(id *ast.Ident, stack []ast.Node) {
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	if isWriteTarget(id, stack) {
		p.Reportf(id.Pos(), "write to package-level variable %s in LP body; LP state must live on the LP struct or in messages", id.Name)
		return
	}
	if types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
		return
	}
	p.Reportf(id.Pos(), "read of package-level variable %s in LP body; pass it in at construction instead", id.Name)
}

// isWriteTarget reports whether e is directly assigned or incremented.
func isWriteTarget(e ast.Expr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == e {
				return true
			}
		}
	case *ast.IncDecStmt:
		return parent.X == e
	}
	return false
}

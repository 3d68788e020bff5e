package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"slices"
	"strings"
)

// The linter recognises the runtime API by types, not by spelling: a call
// resolves through go/types to a *types.Func, and what matters is the
// package that declared it (dtt/internal/core, or the root dtt package
// whose exported names alias core's) and the receiver's named type. Code
// that renames imports, uses the internal package directly, or wraps calls
// in local helpers of the same types is analysed identically.

// isCorePath reports whether path declares the runtime API.
func isCorePath(path string) bool {
	return path == "dtt" || strings.HasSuffix(path, "/internal/core")
}

// calleeOf resolves the *types.Func a call invokes, or nil for indirect
// calls, conversions and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// recvNamed returns the name of fn's receiver's named type ("" for plain
// functions), looking through one pointer.
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isCoreMethod reports whether fn is method name on core type recv
// (e.g. recv "Region", name "TStore").
func isCoreMethod(fn *types.Func, recv string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || !isCorePath(fn.Pkg().Path()) || recvNamed(fn) != recv {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isCoreNew reports whether fn is core.New or the root package's dtt.New.
func isCoreNew(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && isCorePath(fn.Pkg().Path()) &&
		fn.Name() == "New" && recvNamed(fn) == ""
}

// isServePath reports whether path declares the network trigger-plane API.
func isServePath(path string) bool {
	return strings.HasSuffix(path, "/internal/serve")
}

// isServeMethod reports whether fn is method name on serve type recv
// (e.g. recv "Server", name "Serve").
func isServeMethod(fn *types.Func, recv string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || !isServePath(fn.Pkg().Path()) || recvNamed(fn) != recv {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isServeNew reports whether fn is serve.NewServer.
func isServeNew(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && isServePath(fn.Pkg().Path()) &&
		fn.Name() == "NewServer" && recvNamed(fn) == ""
}

// recvExpr returns the receiver expression of a method call (the X of its
// selector), or nil.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// rootObj resolves the object an expression names, for tracking regions and
// thread IDs across a package: a plain identifier resolves to its variable,
// pkg.Var to the package-level variable, x.field (and x[i].field) to the
// field object — so two instances of one struct type share an identity,
// a sound over-approximation for lint purposes. Calls and other computed
// expressions resolve to nil (unknown).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return rootObj(info, e.X)
	case *ast.UnaryExpr:
		return rootObj(info, e.X)
	case *ast.StarExpr:
		return rootObj(info, e.X)
	}
	return nil
}

// constIntOf evaluates e as a constant integer, reporting ok=false for
// non-constant expressions.
func constIntOf(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// The Region write methods, named once: plainWrites bypass trigger
// dispatch, triggerWrites fire the threads attached to the words they
// change.
var (
	plainWrites   = []string{"Store", "StoreF"}
	triggerWrites = []string{"TStore", "TStoreF", "TStoreBatch", "TUpdate", "TUpdateBatch"}
	regionWrites  = slices.Concat(plainWrites, triggerWrites)
)

// facts is the per-package database the rules consult.
type facts struct {
	pkg *Package

	// attached holds region objects that appear as the region argument of
	// an Attach call; unresolvedAttach counts Attach calls whose region
	// argument had no nameable object.
	attached         map[types.Object]bool
	unresolvedAttach int

	// outputs holds region objects a support thread writes (any region
	// write in a registered body) — the statically known support-thread
	// output surface.
	outputs map[types.Object]bool

	// bodies maps a support body node (FuncLit or FuncDecl) to the
	// ancestors of its Register call, for capture analysis (nil for a named
	// function).
	bodies map[ast.Node][]ast.Node

	// funcDecls maps a function object to its declaration, for resolving
	// Register("name", someFunc).
	funcDecls map[types.Object]*ast.FuncDecl
}

// walkStack traverses root depth-first, calling fn with each node and the
// stack of its ancestors (outermost first). fn's return controls descent.
func walkStack(root ast.Node, fn func(stack []ast.Node, n ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(stack, n) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// collectFacts builds the package database in two passes: registrations
// and attachments first; then the write surface of each support body.
func collectFacts(p *Package) *facts {
	f := &facts{
		pkg:       p,
		attached:  make(map[types.Object]bool),
		outputs:   make(map[types.Object]bool),
		bodies:    make(map[ast.Node][]ast.Node),
		funcDecls: make(map[types.Object]*ast.FuncDecl),
	}
	info := p.Info

	for _, file := range p.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if o := info.Defs[fd.Name]; o != nil {
					f.funcDecls[o] = fd
				}
			}
		}
	}

	for _, file := range p.Files {
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			switch {
			case isCoreMethod(fn, "Runtime", "Register") && len(call.Args) == 2:
				if lit, ok := unparen(call.Args[1]).(*ast.FuncLit); ok {
					f.bodies[lit] = append([]ast.Node(nil), stack...)
				} else if o := rootObj(info, call.Args[1]); o != nil {
					if fd := f.funcDecls[o]; fd != nil {
						f.bodies[fd] = nil
					}
				}
			case isCoreMethod(fn, "Runtime", "Attach") && len(call.Args) == 4:
				if r := rootObj(info, call.Args[1]); r != nil {
					f.attached[r] = true
				} else {
					f.unresolvedAttach++
				}
			}
			return true
		})
	}

	// Pass 2: every region a support body writes is a support output.
	for body := range f.bodies {
		ast.Inspect(bodyBlock(body), func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeOf(info, call); isCoreMethod(fn, "Region", regionWrites...) {
				if o := rootObj(info, recvExpr(call)); o != nil {
					f.outputs[o] = true
				}
			}
			return true
		})
	}
	return f
}

// bodyBlock returns the statement block of a support body node.
func bodyBlock(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncLit:
		return n.Body
	case *ast.FuncDecl:
		return n.Body
	}
	return nil
}

// inSupportBody reports whether pos falls inside any registered support
// body of the package.
func (f *facts) inSupportBody(n ast.Node) bool {
	for body := range f.bodies {
		if b := bodyBlock(body); b != nil && n.Pos() >= b.Pos() && n.End() <= b.End() {
			return true
		}
	}
	return false
}

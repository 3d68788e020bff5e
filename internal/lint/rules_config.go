package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Rule config-misuse: mechanical mistakes in wiring a runtime up, each of
// which the runtime tolerates silently (or fails at run time) but none of
// which a correct program writes:
//
//   - a Register result discarded — the ThreadID is the only handle for
//     Attach/Wait/Cancel, so an unbound registration is dead weight;
//   - an Attach error discarded — a rejected attachment
//     means the thread never fires, and the program runs wrong silently;
//   - a runtime built with New and never Closed in the same function
//     (when it does not escape) — worker goroutines leak;
//   - a Workers literal with a single-goroutine backend — Workers only
//     exists on BackendImmediate; anywhere else the value is ignored.
//
// The network trigger plane (internal/serve) has the same failure shapes,
// so the rule covers its API too:
//
//   - a Server.Serve error discarded (including `go srv.Serve(ln)`, where
//     the error dies with the goroutine) — an accept-loop failure is
//     otherwise invisible;
//   - a Session.Attach error discarded — the handle is invalid and every
//     later frame on it fails at the server;
//   - a server built with NewServer and never Closed in the same function
//     (when it does not escape) — the listener and session goroutines leak.
func runConfigMisuse(_ *program, f *facts, rep *reporter) {
	info := f.pkg.Info
	for _, file := range f.pkg.Files {
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDiscarded(info, stack, n, rep)
				checkNewWithoutClose(info, stack, n, rep)
			case *ast.CompositeLit:
				checkConfigLiteral(info, f.pkg.Types, n, rep)
			}
			return true
		})
	}
}

// checkDiscarded flags Register/Attach/Serve calls whose result
// is thrown away — as a bare statement, assigned to blank, or (for the
// error-returning calls) launched with go so the error dies with the
// goroutine. serve's two-valued Session.Attach is handled separately: there
// the error is the second result, discarded by a blank in the second slot.
func checkDiscarded(info *types.Info, stack []ast.Node, call *ast.CallExpr, rep *reporter) {
	if len(stack) == 0 {
		return
	}
	fn := calleeOf(info, call)
	parent := stack[len(stack)-1]

	if isServeMethod(fn, "Session", "Attach") {
		discarded := false
		switch p := parent.(type) {
		case *ast.ExprStmt:
			discarded = true
		case *ast.AssignStmt:
			if len(p.Rhs) == 1 && unparen(p.Rhs[0]) == call && len(p.Lhs) == 2 {
				if id, ok := p.Lhs[1].(*ast.Ident); ok && id.Name == "_" {
					discarded = true
				}
			}
		}
		if discarded {
			rep.report(call.Pos(), "config-misuse",
				"discarded error returned by Session.Attach",
				"check the error: a rejected attach leaves the handle invalid and every later frame on it failing")
		}
		return
	}

	var what, hint string
	switch {
	case isCoreMethod(fn, "Runtime", "Register"):
		what = "ThreadID returned by Register"
		hint = "bind the result (id := rt.Register(...)); it is the only handle for Attach, Wait and Cancel"
	case isCoreMethod(fn, "Runtime", "Attach"):
		what = "error returned by Attach"
		hint = "check the error: a rejected attachment means the thread never fires"
	case isServeMethod(fn, "Server", "Serve"):
		what = "error returned by Serve"
		hint = "check the error (or capture it from the serving goroutine, as Server.Start does): an accept-loop failure is silent otherwise"
	default:
		return
	}
	discarded := false
	switch parent := parent.(type) {
	case *ast.ExprStmt:
		discarded = true
	case *ast.GoStmt:
		discarded = true
	case *ast.AssignStmt:
		for i, r := range parent.Rhs {
			if unparen(r) != call || i >= len(parent.Lhs) {
				continue
			}
			if id, ok := parent.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				discarded = true
			}
		}
	}
	if discarded {
		rep.report(call.Pos(), "config-misuse", "discarded "+what, hint)
	}
}

// checkNewWithoutClose flags a core.New/dtt.New runtime — or a
// serve.NewServer trigger plane — that is neither Closed in the enclosing
// function nor handed to anything that could close it. The escape analysis
// is deliberately coarse and one-sided: any use of the variable other than
// a method call or a reassignment-free read makes the rule stand down, so
// only the self-contained leak pattern is reported.
func checkNewWithoutClose(info *types.Info, stack []ast.Node, call *ast.CallExpr, rep *reporter) {
	fn := calleeOf(info, call)
	var kind, builder, leak string
	switch {
	case isCoreNew(fn):
		kind, builder, leak = "runtime", "New", "worker goroutines leak otherwise"
	case isServeNew(fn):
		kind, builder, leak = "server", "NewServer", "the listener and session goroutines leak otherwise"
	default:
		return
	}
	if len(stack) == 0 {
		return
	}
	assign, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) < 1 {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	encl := enclosingFunc(stack)
	if encl == nil {
		return
	}
	closed, escapes := false, false
	walkStack(encl, func(stk []ast.Node, n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok || (info.Uses[ident] != obj) || len(stk) == 0 {
			return true
		}
		switch parent := stk[len(stk)-1].(type) {
		case *ast.SelectorExpr:
			// rt.Method(...) / rt.field — a Close call counts; other
			// method calls are fine and not escapes.
			if parent.Sel.Name == "Close" {
				if gp := len(stk) - 2; gp >= 0 {
					if c, ok := stk[gp].(*ast.CallExpr); ok && unparen(c.Fun) == parent {
						closed = true
					}
				}
			}
		case *ast.AssignStmt:
			// Our own binding is fine; rt appearing on an RHS (aliased or
			// stored) or re-bound later is an escape.
			if parent != assign {
				escapes = true
			}
		default:
			// Call argument, return value, composite literal, &rt, channel
			// send, comparison... — ownership may move; stand down.
			escapes = true
		}
		return true
	})
	if !closed && !escapes {
		rep.report(call.Pos(), "config-misuse",
			fmt.Sprintf("%s %q built with %s is never Closed in this function", kind, id.Name, builder),
			"add defer "+id.Name+".Close(); "+leak)
	}
}

// checkConfigLiteral inspects a core.Config composite literal in package pkg
// for backend mistakes that the runtime accepts silently.
func checkConfigLiteral(info *types.Info, pkg *types.Package, cl *ast.CompositeLit, rep *reporter) {
	tv, ok := info.Types[cl]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Config" || named.Obj().Pkg() == nil || !isCorePath(named.Obj().Pkg().Path()) {
		return
	}

	// Backend: the zero value unless the field is set. Only a constant pins
	// it; a variable leaves it unknown.
	backend, backendKnown := int64(0), true
	var fields = map[string]ast.Expr{}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return // positional Config literal: field roles unknowable here
		}
		if key, ok := kv.Key.(*ast.Ident); ok {
			fields[key.Name] = kv.Value
		}
	}
	if be, ok := fields["Backend"]; ok {
		if v, isConst := constIntOf(info, be); isConst {
			backend = v
		} else {
			backendKnown = false
		}
	}

	if w, ok := fields["Workers"]; ok && backendKnown {
		name := backendName(append([]*types.Package{named.Obj().Pkg()}, pkg.Imports()...), backend)
		if v, isConst := constIntOf(info, w); isConst && v > 0 && name != "immediate" {
			rep.report(w.Pos(), "config-misuse",
				fmt.Sprintf("Workers: %d has no effect: the %s backend runs support threads on a single goroutine", v, name),
				"drop the Workers field, or select BackendImmediate if parallel dispatch was intended")
		}
	}
}

// backendName names Backend value v as core.Backend.String does, from the
// first BackendX constant of type core.Backend that one of pkgs declares:
// BackendSeeded is "seeded". pkgs are Config's package and then the linted
// package's imports, because a package that reaches core only through the
// root dtt package sees core as the stub dtt's export data describes, which
// holds no constants, while dtt re-declares every one. The enum lives once,
// so renumbering it cannot mislabel a finding here.
func backendName(pkgs []*types.Package, v int64) string {
	for _, pkg := range pkgs {
		for _, id := range pkg.Scope().Names() {
			c, ok := pkg.Scope().Lookup(id).(*types.Const)
			if ok && strings.HasPrefix(id, "Backend") && strings.HasSuffix(c.Type().String(), ".Backend") {
				if cv, exact := constant.Int64Val(c.Val()); exact && cv == v {
					return strings.ToLower(strings.TrimPrefix(id, "Backend"))
				}
			}
		}
	}
	return fmt.Sprintf("Backend(%d)", v)
}

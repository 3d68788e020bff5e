package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Rule untriggered-write: a plain Region.Store to a region that has thread
// attachments, performed outside any registered support body. A plain
// store bypasses trigger dispatch entirely — attached threads silently
// miss the update — which is almost never what trigger-carrying data
// wants. Trigger data is written with TStore (fires on change, silent
// otherwise); pre-protocol input setup uses Poke, which is explicitly
// event-free.
//
// Interprocedural refinement: a helper whose every reference sits inside a
// support body (directly, or through other such helpers — the call graph's
// supportOnly set) executes in support-thread context, so its plain stores
// are a support thread writing its outputs, not a missed trigger.
func runUntriggeredWrite(pr *program, f *facts, rep *reporter) {
	info := f.pkg.Info
	for _, file := range f.pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, _ := info.Defs[fd.Name].(*types.Func); fn != nil && pr.supportOnlyFunc(fn) {
					continue
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(info, call)
				if !isCoreMethod(fn, "Region", "Store", "StoreF") {
					return true
				}
				obj := rootObj(info, recvExpr(call))
				if obj == nil || !f.attached[obj] || f.inSupportBody(call) {
					return true
				}
				rep.report(call.Pos(), "untriggered-write",
					fmt.Sprintf("plain %s to region %q, which has thread attachments: attached threads will not see this update",
						fn.Name(), obj.Name()),
					"use TStore to fire attached threads (silent when unchanged), or Poke for event-free input setup")
				return true
			})
		}
	}
}

// Rule write-escape: a registered support body writes a region that is
// neither attached to its thread nor granted via AllowWrites. This is the
// static mirror of the sanitizer's KindWriteEscape and shares its opt-in
// contract: a thread with no AllowWrites grants has an undeclared output
// surface and is not confined; once the program grants any window, every
// body write must land in the attachment or grant set. Writes through
// tg.Region are always legal — the trigger region is attached by
// construction.
//
// Interprocedural extension: a call from the body to a same-package helper
// whose summary writes an undeclared region is the same escape one hop
// removed, reported at the call site with the chain that reaches the
// write. Same-package only — the summary's region identities (fields,
// package variables) mean nothing to the attachment facts of another
// package.
func runWriteEscape(pr *program, f *facts, rep *reporter) {
	info := f.pkg.Info
	for body, tf := range f.bodies {
		if tf.grantN == 0 {
			continue
		}
		trig := triggerParam(info, body)
		ast.Inspect(bodyBlock(body), func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			name := tf.regName
			if name == "" {
				name = "support thread"
			}
			if !isCoreMethod(fn, "Region", "Store", "StoreF", "TStore", "TStoreF", "TStoreBatch", "TStoreRange", "TUpdate", "TUpdateBatch") {
				if callee := pr.lookup(fn); callee != nil && callee.pkg == f.pkg {
					for _, w := range callee.sum.writes {
						if tf.atts[w.obj] || tf.grants[w.obj] {
							continue
						}
						rep.report(call.Pos(), "write-escape",
							fmt.Sprintf("%s body writes region %q via %s, which is neither attached to it nor granted via AllowWrites",
								name, w.region, chainVia(callee.display, w.via)),
							"declare the output window with rt.AllowWrites(thread, region, lo, hi), or write only attached/granted regions")
						break
					}
				}
				return true
			}
			recv := recvExpr(call)
			if isTriggerRegionExpr(info, recv, trig) {
				return true
			}
			obj := rootObj(info, recv)
			if obj == nil || tf.atts[obj] || tf.grants[obj] {
				return true
			}
			rep.report(call.Pos(), "write-escape",
				fmt.Sprintf("%s body writes region %q, which is neither attached to it nor granted via AllowWrites",
					name, obj.Name()),
				"declare the output window with rt.AllowWrites(thread, region, lo, hi), or write only attached/granted regions")
			return true
		})
	}
}

// Rule trigger-capture: a ThreadFunc literal captures a local that is
// reassigned after registration. A support body does not run where it is
// written — it runs at dispatch time (immediate backend), at the consuming
// Wait (deferred), or at a seed-chosen preemption point (seeded). A
// captured mutable observes whatever value it holds at that moment, so the
// body computes different results under different backends and schedules,
// breaking the deterministic replay the seeded backend exists to provide.
// Captured values that never change after registration (regions, runtime
// handles, configuration) are the normal idiom and are not flagged, and
// neither is a loop variable: since Go 1.22 (this module's go directive)
// each iteration binds its own, so a body registered in the loop reads its
// iteration's value unless the body of the loop reassigns it.
func runTriggerCapture(_ *program, f *facts, rep *reporter) {
	info := f.pkg.Info
	for body, tf := range f.bodies {
		lit, ok := body.(*ast.FuncLit)
		if !ok {
			continue // a named ThreadFunc cannot capture
		}
		enclosing := enclosingFunc(tf.stack)
		reported := make(map[types.Object]bool)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := info.Uses[id].(*types.Var)
			if !ok || reported[obj] || obj.IsField() || obj.Pkg() != f.pkg.Types {
				return true
			}
			// Free variable: declared outside the literal but not at
			// package level.
			if obj.Parent() == f.pkg.Types.Scope() ||
				(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
				return true
			}
			if enclosing != nil && assignedAfter(info, enclosing, obj, lit.End()) {
				reported[obj] = true
				rep.report(id.Pos(), "trigger-capture",
					fmt.Sprintf("ThreadFunc captures %q, which is reassigned after registration: instances observe the value at dispatch time, nondeterministic under deferred/seeded replay", obj.Name()),
					"bind the value to a variable that is not reassigned, or carry it in trigger data")
			}
			return true
		})
	}
}

// enclosingFunc returns the innermost function node in an ancestor stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return stack[i]
		}
	}
	return nil
}

// assignedAfter reports whether obj is assigned (x = ..., x++) anywhere in
// fn at a position after pos. Mutations of fields or elements reached
// through obj do not count — handing a support thread a struct it shares
// is the programmer's stated intent; silently rebinding the variable the
// closure reads is the replay hazard this rule exists for.
func assignedAfter(info *types.Info, fn ast.Node, obj types.Object, pos token.Pos) bool {
	found := false
	isObj := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Pos() > pos {
				for _, l := range n.Lhs {
					if isObj(l) {
						found = true
					}
				}
			}
		case *ast.IncDecStmt:
			if n.Pos() > pos && isObj(n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Rule read-before-wait: on some path through a function, a support
// thread's output region is Loaded after a triggering store with no
// intervening Wait or Barrier. This is the static mirror of the
// sanitizer's KindReadBeforeWait: the dynamic checker flags the schedules
// it happens to see, while this pass flags the access pattern on every
// path of every build.
//
// The analysis is intra-procedural and deliberately small: each function
// body is walked as a control-flow graph over statements, propagating one
// bit — "a trigger may be outstanding". The bit is set by TStore/TStoreF
// on an attached region (and by GuardSet.Update/Touch, which are
// triggering stores by construction), cleared by any Wait or Barrier, and
// checked at every Load/LoadF of a region the package knows to be a
// support-thread output (written in a registered body). Branches merge
// with OR — dangerous-on-any-path reports — and loop bodies run to a
// two-pass fixpoint so a trigger at the bottom of a loop reaches a load at
// the top.
//
// Known approximations, chosen to keep false positives near zero on real
// code: Wait(t) on any thread clears the bit (the paper's discipline is
// per-thread, but matching thread identities of a Wait against the
// outstanding trigger set is rarely decidable statically); function
// literals are analysed as separate functions (their run time is
// unknown); defer/go statements neither set nor clear state (a deferred
// Wait does not order the loads that precede it textually... but follow
// it dynamically).

// flowState is the dataflow fact at one program point.
type flowState struct {
	triggered bool // a triggering store may be outstanding on this path
	dead      bool // this path has returned/broken
}

func mergeFlow(a, b flowState) flowState {
	if a.dead {
		return b
	}
	if b.dead {
		return a
	}
	return flowState{triggered: a.triggered || b.triggered}
}

type flowAnalyzer struct {
	f   *facts
	rep *reporter
	// prog drives the interprocedural transfer: at a call to an
	// in-program function, the callee's summary moves the bit and
	// surfaces its entry-sensitive output reads. During the summary
	// fixpoint those are the summaries of the round so far.
	prog *program
	// sumReads, when non-nil, puts the analyzer in summary-collection
	// mode: hazardous reads are recorded here instead of reported.
	sumReads map[token.Pos]readSite
	// exit, when non-nil, accumulates the merge of the flow state at
	// every reachable function exit (returns and fall-off).
	exit *flowState
}

// runFlowRule analyses every function of the package that executes in
// main-thread context: support bodies are excluded (a support thread
// reading its own outputs is its business; cross-thread hazards are the
// dynamic checker's domain), as are function literals nested inside them.
func runFlowRule(pr *program, f *facts, rep *reporter) {
	fa := &flowAnalyzer{f: f, rep: rep, prog: pr}
	for _, file := range f.pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, isSupport := f.bodies[fd]; isSupport {
				continue
			}
			fa.stmts(fd.Body.List, flowState{})
		}
		// Function literals run at times the linter cannot order against
		// the enclosing protocol state, so each is analysed as its own
		// function starting from a clean state.
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if _, isSupport := f.bodies[lit]; isSupport || f.inSupportBody(lit) {
				return true
			}
			fa.stmts(lit.Body.List, flowState{})
			return true
		})
	}
}

func (fa *flowAnalyzer) stmts(list []ast.Stmt, st flowState) flowState {
	for _, s := range list {
		st = fa.stmt(s, st)
	}
	return st
}

func (fa *flowAnalyzer) stmt(s ast.Stmt, st flowState) flowState {
	if st.dead {
		return st
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return fa.stmts(s.List, st)
	case *ast.LabeledStmt:
		return fa.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = fa.stmt(s.Init, st)
		}
		st = fa.exprEvents(s.Cond, st)
		thenOut := fa.stmt(s.Body, st)
		elseOut := st
		if s.Else != nil {
			elseOut = fa.stmt(s.Else, st)
		}
		return mergeFlow(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			st = fa.stmt(s.Init, st)
		}
		in := st
		for pass := 0; pass < 2; pass++ {
			iter := in
			if s.Cond != nil {
				iter = fa.exprEvents(s.Cond, iter)
			}
			iter = fa.stmt(s.Body, iter)
			if s.Post != nil && !iter.dead {
				iter = fa.stmt(s.Post, iter)
			}
			in = mergeFlow(in, iter)
		}
		return in
	case *ast.RangeStmt:
		st = fa.exprEvents(s.X, st)
		in := st
		for pass := 0; pass < 2; pass++ {
			in = mergeFlow(in, fa.stmt(s.Body, in))
		}
		return in
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = fa.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = fa.exprEvents(s.Tag, st)
		}
		return fa.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = fa.stmt(s.Init, st)
		}
		st = fa.exprEvents(s.Assign, st)
		return fa.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		out := flowState{dead: true}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := st
			if cc.Comm != nil {
				branch = fa.stmt(cc.Comm, branch)
			}
			out = mergeFlow(out, fa.stmts(cc.Body, branch))
		}
		return mergeFlow(out, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = fa.exprEvents(r, st)
		}
		if fa.exit != nil {
			*fa.exit = mergeFlow(*fa.exit, flowState{triggered: st.triggered})
		}
		return flowState{dead: true}
	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line region; treating
		// the path as ended under-approximates (may miss findings past a
		// loop) but never invents one.
		return flowState{dead: true}
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred and spawned calls run at unknowable protocol points:
		// no state effects, no findings inside.
		return st
	case *ast.ExprStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		return fa.exprEvents(s, st)
	}
	return st
}

// caseClauses analyses a switch body: every clause branches from the same
// entry state; a missing default keeps the fall-past path live.
func (fa *flowAnalyzer) caseClauses(body *ast.BlockStmt, st flowState) flowState {
	out := flowState{dead: true}
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		branch := st
		for _, e := range cc.List {
			branch = fa.exprEvents(e, branch)
		}
		out = mergeFlow(out, fa.stmts(cc.Body, branch))
	}
	if !hasDefault {
		out = mergeFlow(out, st)
	}
	return out
}

// exprEvents applies the protocol events inside one statement or
// expression, in syntactic order — trigger stores set the bit, Wait and
// Barrier clear it, output-region loads are checked against it. Function
// literals are not descended into (see runFlowRule).
func (fa *flowAnalyzer) exprEvents(n ast.Node, st flowState) flowState {
	info := fa.f.pkg.Info
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		switch {
		case isCoreMethod(fn, "Region", triggerWrites...):
			if fa.regionTriggers(rootObj(info, recvExpr(call))) {
				st.triggered = true
			}
		case isCoreMethod(fn, "GuardSet", "Update", "Touch"):
			// Guard updates are triggering stores by construction.
			st.triggered = true
		case isCoreMethod(fn, "Runtime", "Wait", "Barrier"):
			st.triggered = false
		case isCoreMethod(fn, "Region", "Load", "LoadF"):
			if !st.triggered {
				break
			}
			obj := rootObj(info, recvExpr(call))
			if obj == nil || !fa.f.outputs[obj] {
				break
			}
			fa.foundRead(call.Pos(), fn.Name(), obj.Name(), "")
		default:
			// Interprocedural transfer: a call to an in-program function
			// applies its summary — Wait one call deep clears the bit,
			// TStore one call deep sets it, and an output load one call
			// deep is reported at the call site with the chain that
			// reaches it.
			fi := fa.prog.lookup(fn)
			if fi == nil {
				break
			}
			s := &fi.sum
			if st.triggered {
				for _, r := range s.reads {
					fa.foundRead(call.Pos(), "call to "+fi.display, r.region, chainVia(fi.display, r.via))
					break // one finding per call site; the chain names the rest
				}
				st.triggered = s.exitIfTriggered
			} else {
				st.triggered = s.exitIfClean
			}
		}
		return true
	})
	return st
}

// foundRead handles one hazardous output read: reported in rule mode,
// recorded in summary-collection mode. what is the operation ("Load", or
// "call to helper" for interprocedural sites); via is the call chain that
// reaches the load, "" when direct.
func (fa *flowAnalyzer) foundRead(pos token.Pos, what, region, via string) {
	if fa.sumReads != nil {
		if _, ok := fa.sumReads[pos]; !ok {
			fa.sumReads[pos] = readSite{pos: pos, region: region, via: via}
		}
		return
	}
	if fa.rep == nil {
		return
	}
	msg := fmt.Sprintf("%s of support-thread output region %q is reachable after a triggering store with no intervening Wait/Barrier",
		what, region)
	if via != "" {
		msg = fmt.Sprintf("call reads support-thread output region %q after a triggering store with no intervening Wait/Barrier (read reached via %s)",
			region, via)
	}
	fa.rep.report(pos, "read-before-wait", msg,
		"synchronise with rt.Wait(thread) or rt.Barrier() before consuming support-thread results")
}

// regionTriggers decides whether a triggering store to this receiver can
// fire a thread: yes if the region is attached in this package, or if the
// receiver (or some attachment) was not statically resolvable, in which
// case the package plainly runs triggers and the store is assumed live.
// A resolved region with no attachment anywhere in the package cannot fire.
func (fa *flowAnalyzer) regionTriggers(obj types.Object) bool {
	if obj != nil {
		if fa.f.attached[obj] {
			return true
		}
		// Region resolved, and every attachment in the package also
		// resolved to some other region: this store fires nothing we know.
		return fa.f.unresolvedAttach > 0
	}
	return len(fa.f.attached) > 0 || fa.f.unresolvedAttach > 0
}

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
// The analysis runs on the shared statement walker (walk.go), propagating
// one bit — "a trigger may be outstanding". The bit is set by a triggering
// write (TStore, TStoreF, their batch forms and TUpdate) on an attached
// region and by GuardSet.Update/Touch, which are triggering stores by
// construction; it is cleared by any Wait or Barrier, and checked at every
// Load/LoadF of a region the package knows to be a support-thread output
// (written in a registered body). Paths join with OR — dangerous on any
// path reports — so a break that skips a Wait carries the bit out of its
// loop or switch, a continue carries it to the next iteration, and a path
// that ends in a panic carries it nowhere. A range loop may run zero times.
// Calls to functions of the loaded program apply their summaries
// (program.go), so the rule is interprocedural.
//
// Known approximations, chosen to keep false positives near zero on real
// code: Wait(t) on any thread clears the bit (the paper's discipline is
// per-thread, but matching thread identities of a Wait against the
// outstanding trigger set is rarely decidable statically); function
// literals are analysed as separate functions (their run time is
// unknown); defer/go statements neither set nor clear state (a deferred
// Wait does not order the loads that precede it textually... but follow
// it dynamically).

// flowState is the dataflow fact at one program point; the zero value is
// the unreachable path.
type flowState struct {
	live      bool
	triggered bool // a triggering store may be outstanding on this path
}

func (s flowState) dead() bool { return !s.live }

func (s flowState) clone() flowState { return s }

func (s flowState) join(o flowState) flowState {
	s.triggered = s.triggered || o.triggered
	return s
}

// flowAnalyzer is read-before-wait's hooks on the shared walker.
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
}

// walk walks one function body entering with the bit as given and
// returns the state joined over its exits.
func (fa *flowAnalyzer) walk(body *ast.BlockStmt, triggered bool) flowState {
	return walkBody(fa.prog, fa.f, fa, body, flowState{live: true, triggered: triggered})
}

// runFlowRule analyses every function of the package that executes in
// main-thread context, each literal as a function of its own (funcLits):
// support bodies are excluded (a support thread reading its own outputs is
// its business; cross-thread hazards are the dynamic checker's domain), as
// are function literals nested inside them.
func runFlowRule(pr *program, f *facts, rep *reporter) {
	fa := &flowAnalyzer{f: f, rep: rep, prog: pr}
	for _, file := range f.pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, isSupport := f.bodies[fd]; !isSupport {
				fa.walk(fd.Body, false)
			}
		}
		funcLits(file, func(lit *ast.FuncLit) {
			if _, isSupport := f.bodies[lit]; !isSupport && !f.inSupportBody(lit) {
				fa.walk(lit.Body, false)
			}
		})
	}
}

// cond applies an if condition's events to both arms alike.
func (fa *flowAnalyzer) cond(e ast.Expr, st flowState) (then, els flowState) {
	st = fa.scan(e, st)
	return st, st
}

// detached: deferred and spawned calls run at unknowable protocol points,
// so they have no state effects and no findings inside.
func (*flowAnalyzer) detached(*ast.CallExpr, bool) {}

// rangeOnce is false: the path that skips a range loop's body is live.
func (*flowAnalyzer) rangeOnce() bool { return false }

// scan applies the protocol events inside one statement or expression, in
// syntactic order — trigger stores set the bit, Wait and Barrier clear it,
// output-region loads are checked against it. Function literals are not
// descended into (see runFlowRule).
func (fa *flowAnalyzer) scan(n ast.Node, st flowState) flowState {
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

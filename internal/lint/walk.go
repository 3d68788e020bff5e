package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The one statement walker. dttlint's path-sensitive analyses run on it:
// read-before-wait's trigger bit (flow.go) and the held lock set that
// lockorder, atomics, entry-held inference and the lock summaries share
// (lockorder.go). It follows a function body's control flow statement by
// statement: blocks, labels, if, for, range, switch, type switch and
// select; returns, joined into the function's exit state; break and
// continue, carried to the statement they leave; and calls that never
// return, which end their path. goto and fallthrough end their path too,
// unfollowed. Loops run to a two-pass fixpoint, so a state at the bottom of
// an iteration reaches the top of the next.
//
// What belongs to one analysis is a hook (walkRule), and nothing else is:
// the events inside an expression, how an if condition splits the state,
// what a defer or go statement does, and whether a range loop may run zero
// times. Where paths meet, the state's own join merges them.

// fact is the dataflow state a walk carries along one path. Its zero value
// is the unreachable path — what a return, a break or a call that never
// returns leaves behind — and the identity of join.
type fact[F any] interface {
	dead() bool
	// join merges the states of two live paths where they meet.
	join(F) F
	// clone copies the state for a branch that may change it.
	clone() F
}

// walkRule is what one analysis adds to the walker.
type walkRule[F any] interface {
	// scan applies the events inside one statement or expression, in
	// syntactic order, without descending into function literals.
	scan(n ast.Node, st F) F
	// cond applies an if condition and returns the states entering its
	// then and else arms.
	cond(e ast.Expr, st F) (then, els F)
	// detached sees the call of a defer or go statement. The call runs at
	// a point the walk cannot place, so it changes no state.
	detached(call *ast.CallExpr, deferred bool)
	// rangeOnce reports whether a range loop runs at least once; if not,
	// the path that skips its body joins the loop's exit.
	rangeOnce() bool
}

// walker is one walk of one function body.
type walker[F fact[F]] struct {
	pr   *program
	info *types.Info
	rule walkRule[F]

	exit F // join of the states at the returns walked so far
	// targets are the statements enclosing the walk's position that a
	// break or continue can leave, innermost last; labels maps each label
	// walked to the statement it labels.
	targets []*breakTarget[F]
	labels  map[string]ast.Stmt
}

// walkBody walks body, a function of f's package, from entry and returns
// the join of the states at its exits: each return, and falling off the
// end. The result is dead when no path returns.
func walkBody[F fact[F]](pr *program, f *facts, rule walkRule[F], body *ast.BlockStmt, entry F) F {
	w := &walker[F]{pr: pr, info: f.pkg.Info, rule: rule}
	out := w.stmts(body.List, entry)
	return join(w.exit, out)
}

// funcLits calls walk for each function literal inside root, at any depth.
// A literal is walked as a function of its own, from a clean state: it runs
// at a point the walk cannot order against where it is written, so it
// inherits nothing from there, and its returns are not its encloser's exits.
func funcLits(root ast.Node, walk func(*ast.FuncLit)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			walk(lit)
		}
		return true
	})
}

// join merges two paths' states; an unreachable path adds nothing.
func join[F fact[F]](a, b F) F {
	if a.dead() {
		return b
	}
	if b.dead() {
		return a
	}
	return a.join(b)
}

func (w *walker[F]) stmts(list []ast.Stmt, st F) F {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *walker[F]) stmt(s ast.Stmt, st F) F {
	var none F
	if st.dead() {
		return st
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		if w.labels == nil {
			w.labels = map[string]ast.Stmt{}
		}
		w.labels[s.Label.Name] = s.Stmt
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		then, els := w.rule.cond(s.Cond, st)
		then = w.stmt(s.Body, then)
		if s.Else != nil {
			els = w.stmt(s.Else, els)
		}
		return join(then, els)
	case *ast.ForStmt:
		bt := w.enter(s, true)
		defer w.leave()
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		in := st
		for pass := 0; pass < 2; pass++ {
			iter := in.clone()
			if s.Cond != nil {
				iter = w.rule.scan(s.Cond, iter)
			}
			iter = w.loopBody(bt, s.Body, iter)
			if s.Post != nil {
				iter = w.stmt(s.Post, iter)
			}
			in = join(in, iter)
		}
		// A loop with no condition exits only through its breaks, never
		// from the state before it.
		if s.Cond == nil {
			return bt.brk
		}
		return join(in, bt.brk)
	case *ast.RangeStmt:
		bt := w.enter(s, true)
		defer w.leave()
		st = w.rule.scan(s.X, st)
		out := w.loopBody(bt, s.Body, st.clone())
		if !w.rule.rangeOnce() {
			out = join(st, out)
		}
		out = join(out, w.loopBody(bt, s.Body, out.clone()))
		return join(out, bt.brk)
	case *ast.SwitchStmt:
		bt := w.enter(s, false)
		defer w.leave()
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.rule.scan(s.Tag, st)
		}
		return join(w.caseClauses(s.Body, st), bt.brk)
	case *ast.TypeSwitchStmt:
		bt := w.enter(s, false)
		defer w.leave()
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		st = w.rule.scan(s.Assign, st)
		return join(w.caseClauses(s.Body, st), bt.brk)
	case *ast.SelectStmt:
		bt := w.enter(s, false)
		defer w.leave()
		var out F
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := st.clone()
			if cc.Comm != nil {
				branch = w.stmt(cc.Comm, branch)
			}
			out = join(out, w.stmts(cc.Body, branch))
		}
		return join(join(out, st), bt.brk)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.rule.scan(r, st)
		}
		w.exit = join(w.exit, st.clone())
		return none
	case *ast.BranchStmt:
		// A break or continue carries its state to the statement it
		// leaves; goto and fallthrough are not followed.
		switch bt := w.branchTarget(s); {
		case bt == nil:
		case s.Tok == token.BREAK:
			bt.brk = join(bt.brk, st.clone())
		default:
			bt.cont = join(bt.cont, st.clone())
		}
		return none
	case *ast.DeferStmt:
		w.rule.detached(s.Call, true)
		return st
	case *ast.GoStmt:
		w.rule.detached(s.Call, false)
		return st
	case *ast.ExprStmt:
		st = w.rule.scan(s, st)
		if call, ok := unparen(s.X).(*ast.CallExpr); ok && w.noReturn(call) {
			return none
		}
		return st
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		return w.rule.scan(s, st)
	}
	return st
}

// noReturn reports whether call never returns: a panic, or a call of a
// function whose every path ends in one. Its statement ends the path, so
// nothing a panicking helper does on its way out reaches the code after
// the call.
func (w *walker[F]) noReturn(call *ast.CallExpr) bool {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	callee := w.pr.lookup(calleeOf(w.info, call))
	return callee != nil && callee.sum.noReturn
}

// caseClauses walks a switch body: every clause branches from the same
// entry state; a missing default keeps the fall-past path live.
func (w *walker[F]) caseClauses(body *ast.BlockStmt, st F) F {
	var out F
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		branch := st.clone()
		for _, e := range cc.List {
			branch = w.rule.scan(e, branch)
		}
		out = join(out, w.stmts(cc.Body, branch))
	}
	if !hasDefault {
		out = join(out, st)
	}
	return out
}

// breakTarget is a statement a break can leave — a loop, a switch or a
// select — or a continue can resume (a loop). brk joins the states the
// breaks out of it carry, cont those of the continues of one pass of its
// body.
type breakTarget[F any] struct {
	stmt      ast.Stmt
	loop      bool
	brk, cont F
}

// enter pushes s as the innermost break target; leave pops it.
func (w *walker[F]) enter(s ast.Stmt, loop bool) *breakTarget[F] {
	bt := &breakTarget[F]{stmt: s, loop: loop}
	w.targets = append(w.targets, bt)
	return bt
}

func (w *walker[F]) leave() { w.targets = w.targets[:len(w.targets)-1] }

// loopBody walks one pass of bt's loop body and joins its continues.
func (w *walker[F]) loopBody(bt *breakTarget[F], body *ast.BlockStmt, in F) F {
	var none F
	bt.cont = none
	return join(w.stmt(body, in), bt.cont)
}

// branchTarget resolves a break or continue to the statement it leaves:
// the one its label names, else the innermost loop (continue) or break
// target (break). Nil for goto and fallthrough.
func (w *walker[F]) branchTarget(s *ast.BranchStmt) *breakTarget[F] {
	if s.Tok != token.BREAK && s.Tok != token.CONTINUE {
		return nil
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		bt := w.targets[i]
		switch {
		case s.Label != nil:
			if bt.stmt == w.labels[s.Label.Name] {
				return bt
			}
		case s.Tok == token.BREAK || bt.loop:
			return bt
		}
	}
	return nil
}

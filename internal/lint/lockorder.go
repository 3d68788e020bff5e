package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Rule lockorder: the runtime's lock hierarchy, checked instead of
// documented. Every named mutex in the runtime has a level; a function may
// acquire a lock only while holding locks of strictly higher level (lower
// rank number = higher level = acquired first). The lattice below is the
// single source of truth: DESIGN.md embeds the same table between
// lock-order-table markers and `make lock-table-check` diffs the two, so
// the prose and the checker cannot drift apart.
//
// Locks are identified instance-insensitively by owning type and field
// ("Runtime.mu"), matching how the hierarchy is stated in DESIGN.md. The
// walker tracks the held set through each function body — branches merge
// by intersection, `defer mu.Unlock()` holds to function end, and both
// TryLock idioms (`if mu.TryLock() {...}` and `if !mu.TryLock() { return }`)
// are modelled — and applies callee acquisition summaries at call sites,
// so an inversion hidden one call deep is reported at the call with the
// full acquisition path. Re-acquiring a singleton lock already held is
// reported as self-deadlock; multi-instance locks (stripe, plane, session)
// are exempt from that check.

// lockRank is one row of the lattice.
type lockRank struct {
	rank int
	key  string // Type.field
	// multi marks locks with many instances (per stripe / plane / session):
	// re-acquiring the same key can be a different instance, so
	// the self-deadlock check does not apply.
	multi bool
	role  string
}

// lockOrderTable is the checked lattice, outermost first. Rank numbers are
// levels: acquiring a lock of numerically smaller rank while holding a
// larger one is an inversion. Equal ranks are independent leaves (never
// nested in either order).
var lockOrderTable = []lockRank{
	{1, "Server.mu", false, "serve session table; taken on accept/retire, never with runtime locks held"},
	{2, "Namespace.mu", false, "namespace region/thread ownership; held while entering rt.mu (Region)"},
	{3, "Runtime.mu", false, "runtime management: region create/release, thread retire"},
	{4, "updatePlane.mergeMu", true, "one merger per plane; taken under rt.mu by release, never the reverse"},
	{5, "deltaStripe.mu", true, "privatized delta stripes; taken by Collect under mergeMu"},
	{6, "dispatcher.mu", false, "the dispatch lock: thread queue and run tokens (together the status table), Wait and Barrier waiters"},
	{7, "recording.mu", false, "the recorder's release map, in the observer seam (leaf)"},
	{7, "Runtime.batchMu", false, "batch scratch free list (leaf)"},
	{7, "stage.mu", false, "the stage of a busy runtime's scalar triggers: a store's append, a flush's take under the dispatch lock (leaf)"},
	{7, "outbox.mu", false, "per-session reply mailbox (leaf)"},
	{7, "Checker.mu", false, "sanitizer state (leaf; runtime locks may be held around checker calls, never the reverse)"},
}

// rankOf returns the lattice rank for a lock key, or 0 for unranked locks.
func rankOf(key string) int {
	for _, r := range lockOrderTable {
		if r.key == key {
			return r.rank
		}
	}
	return 0
}

func multiInstance(key string) bool {
	for _, r := range lockOrderTable {
		if r.key == key {
			return r.multi
		}
	}
	return false
}

// LockTable renders the lattice as the markdown table DESIGN.md embeds
// (dttlint -locktable prints it; make lock-table-check diffs the two).
func LockTable() string {
	var b strings.Builder
	b.WriteString("| rank | lock | role |\n")
	b.WriteString("|------|------|------|\n")
	for _, r := range lockOrderTable {
		fmt.Fprintf(&b, "| %d | `%s` | %s |\n", r.rank, r.key, r.role)
	}
	return b.String()
}

// lockState is the dataflow fact of the held-lock walk; the zero value is
// the unreachable path.
type lockState struct {
	live bool
	held map[string]lockAcq
}

// entryState is a live state holding keys, acquired at pos.
func entryState(keys map[string]bool, pos token.Pos) lockState {
	st := lockState{live: true, held: map[string]lockAcq{}}
	for key := range keys {
		st.held[key] = lockAcq{key: key, pos: pos}
	}
	return st
}

func (ls lockState) dead() bool { return !ls.live }

func (ls lockState) clone() lockState { return lockState{live: ls.live, held: maps.Clone(ls.held)} }

// join keeps a lock held only when it is held on both paths
// (intersection), so the checks never fire on a lock the program might not
// hold.
func (ls lockState) join(o lockState) lockState {
	out := lockState{live: true, held: map[string]lockAcq{}}
	for k, v := range ls.held {
		if _, ok := o.held[k]; ok {
			out.held[k] = v
		}
	}
	return out
}

// lockWalker is the held-lock analysis's hooks on the shared walker
// (walk.go), with the per-function records its summary reads. Consumers
// hook the events they care about; unset hooks are skipped.
type lockWalker struct {
	f  *facts
	pr *program

	// onAcquire fires for every acquisition — direct (via == "") or
	// summarised through a call chain — with the held set at that point.
	onAcquire func(key string, pos token.Pos, via string, held map[string]lockAcq)
	// onCallSite fires for every direct call to an in-program function
	// with the held set at the call (defer/go sites report an empty set).
	onCallSite func(callee *funcInfo, held map[string]lockAcq)
	// onNode fires for every expression node with the current held set
	// (the atomics rule checks guarded field accesses here).
	onNode func(n ast.Node, held map[string]lockAcq)

	// exit is the held-set join over every function exit; after walkDecl
	// it is the net "still held by my caller's lights" set (with deferred
	// releases applied), exported as the summary's exitHeld so lock
	// helpers propagate their effect to callers.
	exit lockState
	// released records keys unlocked while not locally held — releases of
	// the caller's locks by a release helper.
	released map[string]bool
	// waits records the caller's keys this function passes to a condition
	// wait — a callee that drops the key and takes it back — without
	// releasing them itself: it is then a condition wait on them too.
	waits map[string]bool
	// deferredRelease records keys released by deferred Unlocks or
	// deferred calls to releasing helpers; they apply at function exit.
	deferredRelease map[string]bool
}

// walkDecl walks one declaration from entry, then each function literal
// inside it from an empty held set (funcLits): inheriting the
// definition-site locks could claim protection that is not there.
func (lw *lockWalker) walkDecl(fd *ast.FuncDecl, entry lockState) {
	lw.walk(fd.Body, entry)
	funcLits(fd.Body, func(lit *ast.FuncLit) {
		sub := &lockWalker{f: lw.f, pr: lw.pr, onAcquire: lw.onAcquire, onCallSite: lw.onCallSite, onNode: lw.onNode}
		sub.walk(lit.Body, entryState(nil, token.NoPos))
	})
}

// walk walks one function body and settles its exit state.
func (lw *lockWalker) walk(body *ast.BlockStmt, entry lockState) {
	lw.released, lw.waits, lw.deferredRelease = map[string]bool{}, map[string]bool{}, map[string]bool{}
	lw.exit = walkBody(lw.pr, lw.f, lw, body, entry)
	for k := range lw.deferredRelease {
		if _, ok := lw.exit.held[k]; ok {
			delete(lw.exit.held, k)
			continue
		}
		lw.released[k] = true
	}
}

// cond models both TryLock idioms: the lock is held exactly on the success
// arm.
func (lw *lockWalker) cond(e ast.Expr, st lockState) (then, els lockState) {
	if key, pos, ok := lw.tryLockCall(e, false); ok {
		return lw.acquire(st.clone(), key, pos), st
	}
	if key, pos, ok := lw.tryLockCall(e, true); ok {
		return st.clone(), lw.acquire(st.clone(), key, pos)
	}
	st = lw.scan(e, st)
	return st.clone(), st
}

// detached handles defer and go. A deferred call runs at return: the lock
// stays held through the rest of the body (the walk does not process the
// release), but the release is recorded so the function's exit summary
// does not claim the lock for its callers. A spawned goroutine starts with
// no locks of ours held, and a deferred call's entry is unknown too: both
// contribute an empty held set to entry inference.
func (lw *lockWalker) detached(call *ast.CallExpr, deferred bool) {
	if key, ok := lw.mutexCall(call, "Unlock", "RUnlock"); ok && deferred {
		if key != "" {
			lw.deferredRelease[key] = true
		}
		return
	}
	callee := lw.pr.lookup(calleeOf(lw.f.pkg.Info, call))
	if callee == nil {
		return
	}
	if lw.onCallSite != nil {
		lw.onCallSite(callee, map[string]lockAcq{})
	}
	if deferred {
		for _, k := range callee.sum.exitReleased {
			lw.deferredRelease[k] = true
		}
	}
}

// rangeOnce assumes at least one iteration: the ranges that matter here
// walk stripe arrays that are non-empty by construction, and a helper that
// locks in a loop must export the lock its loop takes. Three-clause loops
// keep the zero-iteration join.
func (*lockWalker) rangeOnce() bool { return true }

// scan applies the lock events inside one statement or expression, in
// syntactic order. Function literals are not descended into (walkDecl
// gives each its own walk).
func (lw *lockWalker) scan(n ast.Node, st lockState) lockState {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if lw.onNode != nil {
			lw.onNode(n, st.held)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := lw.mutexCall(call, "Lock", "RLock", "TryLock", "TryRLock"); ok {
			// A bare TryLock whose result feeds something other than the
			// two modelled if-forms is treated as an acquisition — the
			// conservative reading for ordering checks.
			st = lw.acquire(st, key, call.Pos())
			return true
		}
		if key, ok := lw.mutexCall(call, "Unlock", "RUnlock"); ok {
			if key != "" {
				if _, heldNow := st.held[key]; !heldNow {
					lw.released[key] = true
				}
				delete(st.held, key)
			}
			return true
		}
		fn := calleeOf(lw.f.pkg.Info, call)
		callee := lw.pr.lookup(fn)
		if callee == nil {
			return true
		}
		if callee.sum.noReturn {
			// The path ends at the call (stmt): it acquires nothing and
			// releases nothing for the code after it.
			return true
		}
		if lw.onCallSite != nil {
			lw.onCallSite(callee, st.held)
		}
		if lw.onAcquire != nil {
			for _, a := range callee.sum.acquires {
				lw.onAcquire(a.key, call.Pos(), chainVia(callee.display, a.via), st.held)
			}
		}
		// Apply the callee's net lock effect: a lock helper's acquisitions
		// become held here; a release helper drops the caller's locks (or
		// propagates outward when this function does not hold them either).
		// A condition wait on a key this function does not hold either —
		// its caller's — leaves the state as it was, on whatever path the
		// call sits: the function waits on its caller's lock in turn.
		var waited map[string]bool
		for _, k := range callee.sum.exitReleased {
			if _, heldNow := st.held[k]; heldNow {
				delete(st.held, k)
			} else if slices.Contains(callee.sum.exitHeld, k) {
				lw.waits[k] = true
				if waited == nil {
					waited = map[string]bool{}
				}
				waited[k] = true
			} else {
				lw.released[k] = true
			}
		}
		for _, k := range callee.sum.exitHeld {
			if waited[k] {
				continue
			}
			if st.held == nil {
				st.held = map[string]lockAcq{}
			}
			if _, ok := st.held[k]; !ok {
				st.held[k] = lockAcq{key: k, pos: call.Pos(), via: callee.display}
			}
		}
		return true
	})
	return st
}

// acquire records a direct acquisition into the state and fires the hook.
func (lw *lockWalker) acquire(st lockState, key string, pos token.Pos) lockState {
	if lw.onAcquire != nil {
		lw.onAcquire(key, pos, "", st.held)
	}
	if key != "" {
		if st.held == nil {
			st.held = map[string]lockAcq{}
		}
		st.held[key] = lockAcq{key: key, pos: pos}
	}
	return st
}

// mutexCall matches x.f.Name() where Name is one of names and the method's
// receiver is sync.Mutex/RWMutex, returning the lock key ("Type.field", or
// "" for locks that are not struct fields — local and package-level
// mutexes are untracked).
func (lw *lockWalker) mutexCall(call *ast.CallExpr, names ...string) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := lw.f.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	found := false
	for _, n := range names {
		if fn.Name() == n {
			found = true
			break
		}
	}
	if !found {
		return "", false
	}
	return lockKeyOf(lw.f.pkg.Info, sel.X), true
}

// lockKeyOf resolves a mutex-valued expression to its "Type.field" key, or
// "" when the mutex is not a struct field.
func lockKeyOf(info *types.Info, e ast.Expr) string {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	field, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() || !isMutexType(field.Type()) {
		return ""
	}
	owner := namedTypeNameOf(info, sel.X)
	if owner == "" {
		return ""
	}
	return owner + "." + sel.Sel.Name
}

// namedTypeNameOf returns the name of e's named type, looking through
// pointers; "" when the type is unnamed or unknown.
func namedTypeNameOf(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[unparen(e)]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// tryLockCall matches `x.TryLock()` (negated=false) or `!x.TryLock()`
// (negated=true) as the whole condition.
func (lw *lockWalker) tryLockCall(cond ast.Expr, negated bool) (string, token.Pos, bool) {
	e := unparen(cond)
	if negated {
		u, ok := e.(*ast.UnaryExpr)
		if !ok || u.Op != token.NOT {
			return "", token.NoPos, false
		}
		e = unparen(u.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", token.NoPos, false
	}
	key, ok := lw.mutexCall(call, "TryLock", "TryRLock")
	if !ok {
		return "", token.NoPos, false
	}
	return key, call.Pos(), true
}

// collectLockFacts builds the function's lock summary: the transitive
// acquisition set (direct ranked acquisitions plus callees' summaries with
// the call chain recorded — only ranked keys, since unranked locks cannot
// participate in an ordering violation), the keys still held at every exit
// (net effect of a lock helper), and the keys released without being held
// (a release helper dropping its caller's locks).
//
// A direct acquisition of a key the function already released while not
// holding it is the condition-wait shape — the caller's lock, dropped
// around a sleep and taken back — and is not an acquisition: the key stays
// in exitReleased and exitHeld, so the caller's held set is unchanged
// across the call.
func (pr *program) collectLockFacts(fi *funcInfo) (acquires []lockAcq, exitHeld, exitReleased []string, noReturn bool) {
	byKey := map[string]lockAcq{}
	var lw *lockWalker
	lw = &lockWalker{
		f: fi.f, pr: pr,
		onAcquire: func(key string, pos token.Pos, via string, held map[string]lockAcq) {
			if key == "" || rankOf(key) == 0 || (via == "" && lw.released[key]) {
				return
			}
			if _, ok := byKey[key]; !ok {
				byKey[key] = lockAcq{key: key, pos: pos, via: via}
			}
		},
	}
	lw.walkDecl(fi.decl, entryState(nil, token.NoPos))
	for _, a := range byKey {
		acquires = append(acquires, a)
	}
	sort.Slice(acquires, func(i, j int) bool { return acquires[i].key < acquires[j].key })
	if lw.exit.live {
		for k := range lw.exit.held {
			exitHeld = append(exitHeld, k)
		}
	}
	for k := range lw.released {
		exitReleased = append(exitReleased, k)
	}
	for k := range lw.waits {
		if lw.released[k] {
			continue
		}
		exitReleased = append(exitReleased, k)
		if lw.exit.live && !slices.Contains(exitHeld, k) {
			exitHeld = append(exitHeld, k)
		}
	}
	sort.Strings(exitHeld)
	sort.Strings(exitReleased)
	return acquires, exitHeld, exitReleased, !lw.exit.live
}

// runLockOrder checks every function against the lattice.
func runLockOrder(pr *program, f *facts, rep *reporter) {
	for _, file := range f.pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lw := &lockWalker{
				f: f, pr: pr,
				onAcquire: func(key string, pos token.Pos, via string, held map[string]lockAcq) {
					reportLockOrder(rep, f, key, pos, via, held)
				},
			}
			lw.walkDecl(fd, entryState(nil, token.NoPos))
		}
	}
}

// reportLockOrder checks one acquisition against the held set.
func reportLockOrder(rep *reporter, f *facts, key string, pos token.Pos, via string, held map[string]lockAcq) {
	if key == "" {
		return
	}
	r := rankOf(key)
	var heldKeys []string
	for k := range held {
		heldKeys = append(heldKeys, k)
	}
	sort.Strings(heldKeys)
	for _, hk := range heldKeys {
		h := held[hk]
		hr := rankOf(hk)
		switch {
		case hk == key && !multiInstance(key):
			msg := fmt.Sprintf("re-acquires %s while already holding it (acquired at %s): self-deadlock", key, f.posString(h.pos))
			if via != "" {
				msg += "; acquisition path: " + via
			}
			rep.report(pos, "lockorder", msg,
				"release the lock first, or split the function into a Locked variant the holder calls")
		case r != 0 && hr != 0 && r < hr:
			msg := fmt.Sprintf("acquires %s (rank %d) while holding %s (rank %d, acquired at %s): lock-order inversion",
				key, r, hk, hr, f.posString(h.pos))
			if via != "" {
				msg += "; acquisition path: " + via
			}
			rep.report(pos, "lockorder", msg,
				"the lock hierarchy is outermost-first by rank (see DESIGN.md lock-order table); acquire "+key+" before "+hk+" or drop "+hk+" first")
		}
	}
}

// posString formats a position base-file-relative for diagnostics.
func (f *facts) posString(pos token.Pos) string {
	p := f.pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// Whole-program layer: the call graph and per-function summaries that turn
// the intra-procedural rules interprocedural. A TStore, Wait or Lock hidden
// one call deep used to be invisible to the CFG walk; here every function
// declaration in the loaded packages gets a bottom-up summary (does it
// leave a trigger outstanding, does it synchronise, which support outputs
// does it read, which ranked locks does it acquire) computed to a fixpoint
// that runs until nothing changes, so call chains of any depth and mutual
// recursion converge.
// The summaries are deliberately instance-insensitive: regions and locks
// are identified by struct field or package-level variable, so a helper
// that triggers through a parameter is a documented blind spot (the facts
// layer has the same one), while the `p.data.TStore(...)` method idiom —
// how multi-step pipelines are actually written — resolves exactly.

// readSite is one output-region load a function performs that is hazardous
// iff a trigger is already outstanding when the function is entered.
type readSite struct {
	pos    token.Pos
	region string
	via    string // call chain below this function, "" for a direct load
}

// lockAcq is one ranked-lock acquisition, directly or through callees.
type lockAcq struct {
	key string // "Type.field", e.g. "Runtime.mu"
	pos token.Pos
	via string // call chain below this function, "" for a direct Lock
}

// funcSummary is the bottom-up behaviour of one function declaration.
type funcSummary struct {
	// exitIfClean / exitIfTriggered: the outstanding-trigger bit at exit,
	// as a function of the bit at entry. The zero value (false, true) is
	// the identity transfer: a function that neither triggers nor waits.
	exitIfClean     bool
	exitIfTriggered bool
	// reads are output loads that become hazardous when the caller enters
	// with a trigger outstanding (loads the function makes hazardous all
	// by itself are reported at their own site by the intra pass).
	reads []readSite
	// acquires is the transitive set of named mutex acquisitions.
	acquires []lockAcq
	// exitHeld are lock keys held on every path at exit and not released
	// by a defer — the net effect of a lock helper.
	exitHeld []string
	// exitReleased are lock keys the function unlocks without holding —
	// releases of the caller's locks by a release helper.
	exitReleased []string
	// noReturn marks a function no path of which returns: every one ends
	// in a panic (or a call of another such function) or loops forever.
	noReturn bool
}

// refSite is one place a function is called or referenced.
type refSite struct {
	callerKey string // enclosing declaration's key; "" at package scope
	inSupport bool   // lexically inside a registered support body
}

// funcInfo is one function declaration in the loaded program.
type funcInfo struct {
	key     string // pkgPath.[Recv.]Name — stable across packages
	display string // [Recv.]Name, for via chains and diagnostics
	pkg     *Package
	f       *facts
	decl    *ast.FuncDecl
	fn      *types.Func

	calls      []string // callee keys of direct calls, sorted, deduped
	methodRefs []string // keys referenced as method/function values
	refs       []refSite

	sum funcSummary

	// supportOnly: every reference to this function is inside a support
	// body (or inside another support-only function), so its body runs in
	// support-thread context.
	supportOnly bool

	// entryHeld is the set of lock keys held at every known call site;
	// entryHeldKnown is false when the function has no analysable call
	// sites (or is referenced as a value), in which case guard checking
	// gives it the benefit of the doubt.
	entryHeld      map[string]bool
	entryHeldKnown bool
}

// program ties the loaded packages together.
type program struct {
	fset  *token.FileSet
	pkgs  []*Package
	facts map[*Package]*facts
	funcs map[string]*funcInfo
	keys  []string // sorted, for deterministic iteration

	// mutexFields indexes every sync.Mutex/RWMutex struct field in the
	// analysed packages by "Type.field", for validating //dtt:guards.
	mutexFields map[string]bool
}

// funcKeyFor builds the cross-package key for a *types.Func. Keys are
// strings, not objects: the same function is a different types.Object in
// its source-checked package and in importers' export data.
func funcKeyFor(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if r := recvNamed(fn); r != "" {
		return fn.Pkg().Path() + "." + r + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func displayNameFor(fn *types.Func) string {
	if r := recvNamed(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

// lookup resolves a called function to its in-program info, or nil.
func (pr *program) lookup(fn *types.Func) *funcInfo {
	if fn == nil {
		return nil
	}
	return pr.funcs[funcKeyFor(fn)]
}

// buildProgram indexes every function declaration, records call and
// method-value edges, and collects the mutex-field index.
func buildProgram(fset *token.FileSet, pkgs []*Package, factsOf map[*Package]*facts) *program {
	pr := &program{
		fset:        fset,
		pkgs:        pkgs,
		facts:       factsOf,
		funcs:       make(map[string]*funcInfo),
		mutexFields: make(map[string]bool),
	}
	for _, p := range pkgs {
		f := factsOf[p]
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := funcKeyFor(fn)
				pr.funcs[key] = &funcInfo{
					key: key, display: displayNameFor(fn),
					pkg: p, f: f, decl: fd, fn: fn,
				}
			}
			pr.indexMutexFields(p, file)
		}
	}
	for k := range pr.funcs {
		pr.keys = append(pr.keys, k)
	}
	sort.Strings(pr.keys)

	for _, p := range pkgs {
		pr.collectEdges(p, factsOf[p])
	}
	for _, k := range pr.keys {
		fi := pr.funcs[k]
		fi.calls = sortedUnique(fi.calls)
		fi.methodRefs = sortedUnique(fi.methodRefs)
	}
	pr.computeSupportOnly()
	return pr
}

// indexMutexFields records "Type.field" for every mutex-typed struct field.
func (pr *program) indexMutexFields(p *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				obj, _ := p.Info.Defs[name].(*types.Var)
				if obj != nil && isMutexType(obj.Type()) {
					pr.mutexFields[ts.Name.Name+"."+name.Name] = true
				}
			}
		}
		return true
	})
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// collectEdges walks one package recording, for every reference to an
// in-program function, a call edge (direct call position) or a
// method-value edge (the function escapes as a value — its invocation
// points are unknowable, which the consumers treat conservatively).
func (pr *program) collectEdges(p *Package, f *facts) {
	for _, file := range p.Files {
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			callee := pr.funcs[funcKeyFor(fn)]
			if callee == nil {
				return true
			}
			callerKey := ""
			if enc := enclosingDeclKey(p, stack); enc != nil {
				callerKey = funcKeyFor(enc)
			}
			if isCallIdent(stack, id) {
				callee.refs = append(callee.refs, refSite{callerKey: callerKey, inSupport: f.inSupportBody(id)})
				if callerKey != "" {
					pr.funcs[callerKey].calls = append(pr.funcs[callerKey].calls, callee.key)
				}
			} else {
				// The function escapes as a value: its invocation points are
				// unknown, so the ref counts as main-context and the callee
				// is marked as escaping.
				callee.refs = append(callee.refs, refSite{})
				callee.methodRefs = append(callee.methodRefs, callee.key)
				if callerKey != "" {
					fi := pr.funcs[callerKey]
					fi.methodRefs = append(fi.methodRefs, callee.key)
				}
			}
			return true
		})
	}
}

// isCallIdent reports whether id is the called operand of a CallExpr (the
// f of f(...) or the m of x.m(...)), as opposed to a method/function value.
func isCallIdent(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	var callee ast.Expr = id
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.Sel == id {
		callee = sel
		if len(stack) < 2 {
			return false
		}
		parent = stack[len(stack)-2]
	}
	call, ok := parent.(*ast.CallExpr)
	return ok && unparen(call.Fun) == callee
}

// enclosingDeclKey returns the innermost enclosing FuncDecl's *types.Func.
func enclosingDeclKey(p *Package, stack []ast.Node) *types.Func {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			return fn
		}
	}
	return nil
}

func sortedUnique(ss []string) []string {
	sort.Strings(ss)
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// computeSupportOnly finds functions whose every reference sits in
// support-thread context: inside a registered body, or inside another
// support-only function. A greatest fixpoint starting from "has refs"
// knocks entries out until none changes; a round that changes something
// knocks one out, so it ends. Method-value references count as
// main-context (the invocation point is unknown).
func (pr *program) computeSupportOnly() {
	for _, k := range pr.keys {
		fi := pr.funcs[k]
		fi.supportOnly = len(fi.refs) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, k := range pr.keys {
			fi := pr.funcs[k]
			if !fi.supportOnly {
				continue
			}
			for _, r := range fi.refs {
				if r.inSupport {
					continue
				}
				if r.callerKey == "" || !pr.funcs[r.callerKey].supportOnly {
					fi.supportOnly = false
					changed = true
					break
				}
			}
		}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// supportOnlyFunc reports whether the declaration enclosing a node runs
// only in support-thread context.
func (pr *program) supportOnlyFunc(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	fi := pr.funcs[funcKeyFor(fn)]
	return fi != nil && fi.supportOnly
}

// computeSummaries runs the bottom-up fixpoint over all declarations until
// no summary changes. A round carries every effect at least one call
// further up its chain, so no fixpoint takes more rounds than the program
// has functions: passing that is a bug, and panics naming a function whose
// summary is still changing.
func (pr *program) computeSummaries() {
	for round := 0; ; round++ {
		var changing *funcInfo
		for _, k := range pr.keys {
			fi := pr.funcs[k]
			s := pr.summarize(fi)
			if !summariesEqual(&fi.sum, &s) {
				fi.sum = s
				changing = fi
			}
		}
		if changing == nil {
			return
		}
		if round > len(pr.keys)+1 {
			panic(fmt.Sprintf("lint: summaries did not converge in %d rounds over %d functions: %s is still changing", round, len(pr.keys), changing.key))
		}
	}
}

// summarize computes one function's summary against the current table.
func (pr *program) summarize(fi *funcInfo) funcSummary {
	var s funcSummary
	s.exitIfTriggered = true

	// Flow transfer and entry-sensitive reads: run the flow walk twice,
	// entering clean and entering triggered. Reads observed only in the
	// triggered run are the caller's hazard; reads in both are the
	// function's own and are reported at their site by the intra pass.
	readsClean := map[token.Pos]readSite{}
	readsTrig := map[token.Pos]readSite{}
	for _, entry := range []bool{false, true} {
		reads := readsClean
		if entry {
			reads = readsTrig
		}
		fa := &flowAnalyzer{f: fi.f, prog: pr, sumReads: reads}
		exit := fa.walk(fi.decl.Body, entry)
		out := entry // a function that never returns keeps the identity transfer
		if exit.live {
			out = exit.triggered
		}
		if entry {
			s.exitIfTriggered = out
		} else {
			s.exitIfClean = out
		}
	}
	for pos, r := range readsTrig {
		if _, own := readsClean[pos]; !own {
			s.reads = append(s.reads, r)
		}
	}
	sort.Slice(s.reads, func(i, j int) bool { return s.reads[i].pos < s.reads[j].pos })
	if len(s.reads) > 8 {
		s.reads = s.reads[:8]
	}

	s.acquires, s.exitHeld, s.exitReleased, s.noReturn = pr.collectLockFacts(fi)
	return s
}

// chainVia prepends one call-chain hop to an existing chain.
func chainVia(hop, rest string) string {
	if rest == "" {
		return hop
	}
	return hop + " → " + rest
}

func summariesEqual(a, b *funcSummary) bool {
	if a.exitIfClean != b.exitIfClean || a.exitIfTriggered != b.exitIfTriggered ||
		len(a.reads) != len(b.reads) || len(a.acquires) != len(b.acquires) ||
		len(a.exitHeld) != len(b.exitHeld) || len(a.exitReleased) != len(b.exitReleased) ||
		a.noReturn != b.noReturn {
		return false
	}
	for i := range a.exitHeld {
		if a.exitHeld[i] != b.exitHeld[i] {
			return false
		}
	}
	for i := range a.exitReleased {
		if a.exitReleased[i] != b.exitReleased[i] {
			return false
		}
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			return false
		}
	}
	for i := range a.acquires {
		if a.acquires[i] != b.acquires[i] {
			return false
		}
	}
	return true
}

// computeEntryHeld infers, for every function, the set of lock keys held
// at every known call site — the static form of a "caller holds mu"
// contract comment. defer/go call sites contribute the empty set (the call
// runs at an unknowable point); method-value references make the function
// unknown (checked leniently).
//
// Each round proves one more link of a "caller holds mu for me" chain, and a
// larger held set at a function's entry can only enlarge the sets at its call
// sites, so the inference is monotone and runs until no set changes. No chain
// is longer than the program has functions: passing that is a bug, and panics.
func (pr *program) computeEntryHeld() {
	for round := 0; ; round++ {
		if round > len(pr.keys)+1 {
			panic(fmt.Sprintf("lint: entry-held inference did not converge in %d rounds over %d functions", round, len(pr.keys)))
		}
		next := map[string]map[string]bool{}
		seen := map[string]bool{}
		for _, k := range pr.keys {
			fi := pr.funcs[k]
			lw := &lockWalker{
				f: fi.f, pr: pr,
				onCallSite: func(callee *funcInfo, held map[string]lockAcq) {
					hs, ok := next[callee.key]
					if !ok {
						hs = map[string]bool{}
						for key := range held {
							hs[key] = true
						}
						next[callee.key] = hs
						seen[callee.key] = true
						return
					}
					for key := range hs {
						if _, still := held[key]; !still {
							delete(hs, key)
						}
					}
				},
			}
			lw.walkDecl(fi.decl, entryState(fi.entryHeld, fi.decl.Pos()))
		}
		changed := false
		for _, k := range pr.keys {
			fi := pr.funcs[k]
			known, held := seen[k], next[k]
			if len(fi.methodRefs) > 0 && contains(fi.methodRefs, fi.key) {
				// escapes as a value: entry context unknowable
				known, held = false, nil
			}
			if known != fi.entryHeldKnown || !maps.Equal(held, fi.entryHeld) {
				changed = true
			}
			fi.entryHeldKnown, fi.entryHeld = known, held
		}
		if !changed {
			return
		}
	}
}

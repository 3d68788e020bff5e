package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule atomics: a struct field must not be accessed both through
// sync/atomic and by plain load/store — that mix is how the torn-Stats bug
// happened, and the race detector only catches the schedules it sees. The
// escape hatch is a declared discipline: a field annotated
//
//	val uint64 //dtt:guards mu
//
// may be accessed plainly only where the named mutex is held (the atomic
// side stays free — that is the point of the mix: lock-free readers, a
// locked writer). The annotation names a sibling field ("mu") or a
// qualified lock of another type ("dispatcher.mu") for state whose
// guard lives in the caller; held-ness is established lexically by the
// lock walker, or inferred at function entry when every known call site
// holds the lock (the static form of a "caller holds mu" comment).
// Annotated fields are checked even without atomic accesses, so the
// annotations double as checked documentation of the guard discipline.
//
// Deliberate leniencies, each the anti-false-positive direction: typed
// atomics (atomic.Int64 and friends) cannot be mixed and are skipped;
// slice-typed fields count only element accesses (header reads — len,
// range, re-slice — do not race element atomics in this codebase's
// allocate-once buffers); a function that constructs the owner locally is
// building state nobody shares yet; a function with no analysable call
// sites gets the benefit of the doubt on entry-held locks; a qualified
// guard whose declaring type is outside the loaded packages (linting one
// package of a larger program) is validated but not enforced — the
// holders are not visible, so held-ness cannot be established.

// guardSpec is one parsed //dtt:guards annotation.
type guardSpec struct {
	fieldKey string // Owner.field
	owner    string
	lockKey  string // resolved lock key (Type.field)
	pos      token.Pos
	bad      string // non-empty: malformed, with the reason
	// external: the lock's declaring type is outside the loaded program
	// (validated against the lattice only). Held-ness of a lock whose
	// holders are not loaded cannot be established, so the annotation is
	// checked as documentation, not enforced — linting the whole tree
	// loads the holders and re-enables enforcement.
	external bool
}

const guardsPrefix = "//dtt:guards"

// collectGuardSpecs parses a package's field annotations. mutexFields is
// the whole-program mutex index for validating qualified lock paths.
func collectGuardSpecs(p *Package, mutexFields map[string]bool) map[string]guardSpec {
	specs := map[string]guardSpec{}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			siblings := map[string]types.Type{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if obj, ok := p.Info.Defs[name].(*types.Var); ok {
						siblings[name.Name] = obj.Type()
					}
				}
			}
			for _, field := range st.Fields.List {
				text := guardComment(field)
				if text == "" {
					continue
				}
				spec := parseGuardSpec(ts.Name.Name, text, siblings, mutexFields)
				spec.pos = field.Pos()
				for _, name := range field.Names {
					s := spec
					s.fieldKey = ts.Name.Name + "." + name.Name
					specs[s.fieldKey] = s
				}
				if len(field.Names) == 0 { // embedded field: annotation is malformed use
					s := spec
					if s.bad == "" {
						s.bad = "cannot guard an embedded field"
					}
					s.fieldKey = ts.Name.Name + ".(embedded)"
					specs[s.fieldKey] = s
				}
			}
			return true
		})
	}
	return specs
}

// guardComment returns the //dtt:guards comment attached to a field.
func guardComment(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, guardsPrefix) {
				rest := strings.TrimPrefix(c.Text, guardsPrefix)
				if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
					return c.Text
				}
			}
		}
	}
	return ""
}

// parseGuardSpec resolves one annotation's lock path.
func parseGuardSpec(owner, text string, siblings map[string]types.Type, mutexFields map[string]bool) guardSpec {
	spec := guardSpec{owner: owner}
	fields := strings.Fields(strings.TrimPrefix(text, guardsPrefix))
	if len(fields) != 1 {
		spec.bad = fmt.Sprintf("want exactly one lock path, got %q", strings.TrimSpace(strings.TrimPrefix(text, guardsPrefix)))
		return spec
	}
	path := fields[0]
	if !strings.Contains(path, ".") {
		t, ok := siblings[path]
		if !ok {
			spec.bad = fmt.Sprintf("no sibling field %q in %s", path, owner)
			return spec
		}
		if !isMutexType(t) {
			spec.bad = fmt.Sprintf("sibling field %q of %s is not a sync.Mutex/RWMutex", path, owner)
			return spec
		}
		spec.lockKey = owner + "." + path
		return spec
	}
	if mutexFields[path] {
		spec.lockKey = path
		return spec
	}
	if rankOf(path) != 0 {
		spec.lockKey = path
		spec.external = true
		return spec
	}
	spec.bad = fmt.Sprintf("%q names no known mutex field", path)
	return spec
}

// fieldAccess is one plain (non-atomic) use of a tracked field.
type fieldAccess struct {
	key  string
	node ast.Node // the SelectorExpr
	pos  token.Pos
	decl *ast.FuncDecl // enclosing declaration; nil at package scope
	ok   bool          // set by the held walk when the guard was held
}

// runAtomics checks one package's field-access discipline.
func runAtomics(pr *program, f *facts, rep *reporter) {
	p := f.pkg
	info := p.Info
	specs := collectGuardSpecs(p, pr.mutexFields)

	// Malformed annotations are findings themselves: an unchecked guard
	// comment is worse than none.
	var specKeys []string
	for k := range specs {
		specKeys = append(specKeys, k)
	}
	sort.Strings(specKeys)
	for _, k := range specKeys {
		if s := specs[k]; s.bad != "" {
			rep.report(s.pos, "atomics",
				fmt.Sprintf("malformed %s on %s: %s", guardsPrefix, s.fieldKey, s.bad),
				"write //dtt:guards <siblingField> or //dtt:guards <Type.field> naming a mutex")
		}
	}

	atomicAt := map[string]token.Pos{} // field key -> first atomic access
	atomicSpans := map[*ast.File][][2]token.Pos{}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				u, ok := unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				key := fieldKeyOf(info, u.X)
				if key == "" {
					continue
				}
				if _, seen := atomicAt[key]; !seen {
					atomicAt[key] = call.Pos()
				}
				atomicSpans[file] = append(atomicSpans[file], [2]token.Pos{arg.Pos(), arg.End()})
			}
			return true
		})
	}

	var accesses []*fieldAccess
	for _, file := range p.Files {
		spans := atomicSpans[file]
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok || !obj.IsField() || isMutexType(obj.Type()) || isTypedAtomic(obj.Type()) {
				return true
			}
			key := fieldKeyOf(info, sel)
			if key == "" {
				return true
			}
			if inSpans(spans, sel.Pos()) {
				return true
			}
			// Slice/array fields: only element accesses count (see package
			// comment on header leniency).
			if isIndexable(obj.Type()) && !isElementAccess(stack, sel) {
				return true
			}
			accesses = append(accesses, &fieldAccess{
				key: key, node: sel, pos: sel.Pos(),
				decl: enclosingFuncDecl(stack),
			})
			return true
		})
	}

	// Establish held-ness for accesses to guarded fields.
	checkGuardedAccesses(pr, f, specs, accesses)

	for _, a := range accesses {
		spec, guarded := specs[a.key]
		switch {
		case guarded && spec.bad != "":
			// already reported at the annotation
		case guarded:
			if a.ok {
				break
			}
			rep.report(a.pos, "atomics",
				fmt.Sprintf("plain access to %s outside its declared guard %s (%s)", a.key, spec.lockKey, guardsPrefix),
				"hold "+spec.lockKey+" around the access, or access the field atomically")
		default:
			at, mixed := atomicAt[a.key]
			if !mixed {
				break
			}
			rep.report(a.pos, "atomics",
				fmt.Sprintf("field %s is accessed atomically (e.g. at %s) and plainly here: the plain access races the atomic side", a.key, f.posString(at)),
				"make every access atomic, or declare the guard with "+guardsPrefix+" <lock> and hold it here")
		}
	}
}

// checkGuardedAccesses runs the lock walker over each declaration holding
// guarded-field accesses and marks the accesses made under their guard, or
// exempt (constructor context, unknown entry context, package scope).
func checkGuardedAccesses(pr *program, f *facts, specs map[string]guardSpec, accesses []*fieldAccess) {
	byDecl := map[*ast.FuncDecl][]*fieldAccess{}
	for _, a := range accesses {
		spec, ok := specs[a.key]
		if !ok || spec.bad != "" {
			continue
		}
		if spec.external {
			a.ok = true // guard's holders are outside the loaded program
			continue
		}
		if a.decl == nil {
			a.ok = true // package-scope initialisation runs single-goroutine
			continue
		}
		byDecl[a.decl] = append(byDecl[a.decl], a)
	}
	for decl, as := range byDecl {
		var entryHeld map[string]bool
		fn, _ := f.pkg.Info.Defs[decl.Name].(*types.Func)
		if fi := pr.lookup(fn); fi != nil {
			if !fi.entryHeldKnown {
				// No analysable call sites: the entry contract is
				// unknowable, so lexical evidence alone decides —
				// leniently.
				for _, a := range as {
					a.ok = true
				}
				continue
			}
			entryHeld = fi.entryHeld
		}
		constructed := constructedTypes(f.pkg.Info, decl)
		byNode := map[ast.Node]*fieldAccess{}
		for _, a := range as {
			if constructed[specs[a.key].owner] {
				a.ok = true
				continue
			}
			byNode[a.node] = a
		}
		if len(byNode) == 0 {
			continue
		}
		lw := &lockWalker{
			f: f, pr: pr,
			onNode: func(n ast.Node, held map[string]lockAcq) {
				a, ok := byNode[n]
				if !ok || a.ok {
					return
				}
				if _, heldNow := held[specs[a.key].lockKey]; heldNow {
					a.ok = true
				}
			},
		}
		lw.walkDecl(decl, entryState(entryHeld, decl.Pos()))
	}
}

// fieldKeyOf resolves expr (a field selector, possibly through an index)
// to its "Owner.field" key, or "".
func fieldKeyOf(info *types.Info, e ast.Expr) string {
	e = unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return ""
	}
	owner := namedTypeNameOf(info, sel.X)
	if owner == "" {
		return ""
	}
	return owner + "." + sel.Sel.Name
}

// isTypedAtomic reports whether t is one of sync/atomic's typed values
// (atomic.Int64 etc.), which cannot be accessed plainly at all.
func isTypedAtomic(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

func isIndexable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// isElementAccess reports whether sel is indexed by its parent (x.f[i]).
func isElementAccess(stack []ast.Node, sel *ast.SelectorExpr) bool {
	if len(stack) == 0 {
		return false
	}
	ix, ok := stack[len(stack)-1].(*ast.IndexExpr)
	return ok && unparen(ix.X) == sel
}

func inSpans(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// enclosingFuncDecl returns the innermost FuncDecl in the ancestor stack.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// constructedTypes collects named types the declaration constructs locally
// (composite literals and new(T)): state under construction is unshared,
// so its guard need not be held.
func constructedTypes(info *types.Info, decl *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if name := namedTypeNameOf(info, n); name != "" {
				out[name] = true
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
				if tv, ok := info.Types[n.Args[0]]; ok && tv.IsType() {
					t := tv.Type
					if nt, ok := t.(*types.Named); ok {
						out[nt.Obj().Name()] = true
					}
				}
			}
		}
		return true
	})
	return out
}

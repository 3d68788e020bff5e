// Command escapegate pins the zero-allocation contract of the triggering
// fast paths at the compiler level. The allocs/op regression tests catch a
// fast path that allocates per operation; this gate catches the weaker and
// earlier symptom — the escape analyser deciding that *anything* inside a
// pinned function now reaches the heap — by parsing `go build -gcflags=-m`
// diagnostics and attributing each one to the function whose body contains
// it.
//
// Two kinds of heap traffic inside a pinned function are legal and exempt:
//
//   - allocations inside a panic(...) call: the function is already dead
//     when the argument is built, so the cost is off the contract
//   - lines carrying `//dtt:escape-ok -- <justification>` (same line or
//     the line above): lazy first-touch allocations that the steady state
//     never repeats, justified one at a time like //dtt:ignore
//
// The pinned-function table names real declarations: a pin whose function
// no longer exists fails the gate (exit 2), so a rename cannot silently
// retire the contract.
//
// The same diagnostics carry the inliner's verdicts, and a second, smaller
// table (inlined) names the leaf functions the per-word paths are priced on
// being inlined (Buffer.Load, Buffer.Store and System.Compute, the probe
// seam's three accessors, among them): one of them losing its "can inline"
// line — a statement too many, or the function gone — fails the gate by name.
//
// Exit status: 0 clean, 1 a pinned function gained a heap allocation or lost
// its inlinability, 2 usage, build, or pin-table failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// pinned maps a package directory (module-root-relative) to the functions
// whose bodies must stay free of unexempted heap allocations. Methods are
// named Type.Name; the receiver's pointerness does not matter.
var pinned = map[string][]string{
	"internal/core": {
		"Region.Store",
		"Region.TStore",
		"Region.TStoreBatch",
		// The joined write: its joiner, like the helping join's claim,
		// must stay on the writer's stack.
		"Region.TStoreBatchJoin",
		"Runtime.joinLocked",
		"Region.TUpdate",
		"Region.TUpdateBatch",
		"Runtime.tstore",
		"Runtime.tstoreBatch",
		// The pipeline stages every write plane shares: the gate checks
		// pinned bodies only, so the callees carrying the 0 allocs/op
		// contract are named too. observers.write is stage one's hook.
		"observers.write",
		"Runtime.admitRunLocked",
		"Runtime.dispatchFired",
		"Runtime.admitWriteLocked",
		// The stage: a busy runtime's scalar store, its flush and the
		// flush's two wrappers, whose spill must stay on the stack.
		"Runtime.stageWord",
		"Runtime.flushLocked",
		"Runtime.flushHeld",
		"Runtime.flush",
		"soleCover",
		"runWindow",
		"Runtime.afterWrite",
		"Runtime.mergePlane",
		// The dispatch side every admitted entry pays: the worker's claim
		// loop, the helping join's (its claim must stay on the joiner's
		// stack), and the run-of-n bracket with its sweep of the marks —
		// whose bodies' one deferred recover must not move either claim to
		// the heap. runInline is the writer's side of an overflow onto a
		// free token.
		"Runtime.worker",
		"Runtime.drainThread",
		"Runtime.runClaimLocked",
		"threadEntry.resolveLocked",
		"Runtime.runBodies",
		"Runtime.endRunLocked",
		"Runtime.runInline",
		"Runtime.runInlineLocked",
	},
	"internal/mem": {
		"DeltaPlane.ApplyBatch",
		"DeltaPlane.Collect",
		"DeltaPlane.fold",
		"DeltaPlane.Hint",
		"deltaStripe.apply",
	},
	"internal/queue": {
		"ThreadQueue.Dequeue",
		"ThreadQueue.DequeueRun",
		"ThreadQueue.EnqueueRun",
		"ThreadQueue.stamp",
		"ThreadQueue.Mark",
		"ThreadQueue.TakeMarks",
		"ThreadQueue.takeMarks",
		"ThreadQueue.at",
		"ThreadQueue.countUp",
		"PendingSet.slot",
		"clearPending",
	},
	// The serve plane's subscribed request: the notify push every firing
	// support thread makes, the swap that marks its words clean, the one
	// flush both the reader and the writer goroutine call, and its encode
	// of replies and of the CHANGE_NOTIFY runs it cuts from the notes.
	"internal/serve": {
		"outbox.pushNotify",
		"outbox.swapLocked",
		"session.flush",
		"appendMsg",
		"appendNotes",
	},
}

// inlined maps a package directory to the functions that must stay
// inlinable, named as in pinned: the store and load every word pays and the
// Compute every kernel arithmetic op pays, the observer hooks' gates on the
// per-word, per-trigger and per-body paths (one test of the attached
// observers each, and no call with none attached), the coverage test every
// changed word pays, the sole-candidate test and the first-covering
// attachment lookup every admitted run pays, the ring slot arithmetic, the pending bit's test-and-set and clear,
// and the no-marks test every run bracket makes before it releases its
// token.
var inlined = map[string][]string{
	"internal/core": {"observers.write", "observers.access", "observers.admit", "observers.queueDepth",
		"observers.enter", "observers.exit", "covers", "soleCover", "threadEntry.attachmentAt"},
	"internal/mem":   {"Buffer.Load", "Buffer.Store", "System.Compute"},
	"internal/queue": {"PendingSet.slot", "ThreadQueue.at", "clearPending", "pendBit", "ThreadQueue.TakeMarks"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("escapegate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("C", ".", "module root to run the gate from")
		verbose = fs.Bool("v", false, "list every screened diagnostic")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	idx, err := buildIndex(*dir, pinned)
	if err != nil {
		fmt.Fprintf(stderr, "escapegate: %v\n", err)
		return 2
	}

	out, err := compilerOutput(*dir, pinned, inlined)
	if err != nil {
		fmt.Fprintf(stderr, "escapegate: %v\n", err)
		return 2
	}
	diags, inlinable := parseDiags(out)

	violations, screened := idx.check(diags)
	violations = append(violations, notInlinable(inlined, inlinable)...)
	if *verbose {
		for _, d := range diags {
			fmt.Fprintf(stdout, "# %s:%d: %s\n", d.file, d.line, d.msg)
		}
	}
	for _, v := range violations {
		fmt.Fprintln(stdout, v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "escapegate: %d pinned fast-path contract(s) broken\n", len(violations))
		return 1
	}
	fmt.Fprintf(stdout, "escapegate: %d pinned function(s) clean (%d compiler diagnostics screened, %d exempt); inline pins hold\n",
		idx.pinCount(), len(diags), screened)
	return 0
}

// diag is one parsed escape diagnostic.
type diag struct {
	file string // module-root-relative, as the compiler printed it
	line int
	msg  string
}

var diagRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.+)$`)

// compilerOutput builds the packages of the pin tables with -gcflags=-m and
// returns everything the compiler printed. The build cache replays
// diagnostics, so warm runs are cheap.
func compilerOutput(dir string, tables ...map[string][]string) (string, error) {
	seen := map[string]bool{}
	var patterns []string
	for _, table := range tables {
		for p := range table {
			if !seen[p] {
				seen[p] = true
				patterns = append(patterns, "./"+p)
			}
		}
	}
	sort.Strings(patterns)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, patterns...)...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			return "", fmt.Errorf("go build: %v", err)
		}
		return "", fmt.Errorf("go build -gcflags=-m failed:\n%s", out.String())
	}
	return out.String(), nil
}

// parseDiags splits the compiler's -m output into the heap-traffic
// diagnostics and the set of functions it can inline, the latter keyed
// "<package dir>.<name>" with methods named as in the pin tables.
func parseDiags(out string) (heap []diag, inlinable map[string]bool) {
	inlinable = map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file, msg := filepath.ToSlash(m[1]), m[3]
		if fn, ok := strings.CutPrefix(msg, "can inline "); ok {
			// Methods print as (*T).m or T.m; the pin tables drop the
			// receiver's pointerness.
			fn = strings.NewReplacer("(*", "", ")", "").Replace(fn)
			inlinable[filepath.ToSlash(filepath.Dir(file))+"."+fn] = true
			continue
		}
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		heap = append(heap, diag{file: file, line: n, msg: msg})
	}
	return heap, inlinable
}

// notInlinable names every function of the inlined table the compiler did
// not report as inlinable.
func notInlinable(inlined map[string][]string, inlinable map[string]bool) []string {
	var violations []string
	for _, pkgDir := range sortedKeys(inlined) {
		for _, name := range inlined[pkgDir] {
			if !inlinable[pkgDir+"."+name] {
				violations = append(violations,
					fmt.Sprintf("%s: %s must stay inlinable, and the compiler no longer says \"can inline\" — too complex now, renamed or removed?", pkgDir, name))
			}
		}
	}
	return violations
}

// span is an inclusive line range in one file.
type span struct{ lo, hi int }

func (s span) contains(line int) bool { return s.lo <= line && line <= s.hi }

// index is the parsed view of the pinned packages: where each pinned
// function lives, which lines sit inside panic calls, and which lines are
// justified with //dtt:escape-ok.
type index struct {
	funcs  map[string]map[string]span // file -> pinned display name -> body span
	panics map[string][]span          // file -> panic call spans
	okLine map[string]map[int]bool    // file -> lines carrying escape-ok
}

func (ix *index) pinCount() int {
	n := 0
	for _, fns := range ix.funcs {
		n += len(fns)
	}
	return n
}

// buildIndex parses every pinned package and locates every pinned
// function, failing if any pin names a declaration that no longer exists.
func buildIndex(dir string, pinned map[string][]string) (*index, error) {
	ix := &index{
		funcs:  map[string]map[string]span{},
		panics: map[string][]span{},
		okLine: map[string]map[int]bool{},
	}
	for _, pkgDir := range sortedKeys(pinned) {
		want := map[string]bool{}
		for _, name := range pinned[pkgDir] {
			want[name] = true
		}
		fset := token.NewFileSet()
		entries, err := os.ReadDir(filepath.Join(dir, pkgDir))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, pkgDir, e.Name())
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			rel := pkgDir + "/" + e.Name()
			ix.indexFile(fset, rel, file, want)
		}
		for name := range want {
			return nil, fmt.Errorf("pinned function %s.%s not found — renamed or removed? update the pin table in cmd/escapegate", pkgDir, name)
		}
	}
	return ix, nil
}

func (ix *index) indexFile(fset *token.FileSet, rel string, file *ast.File, want map[string]bool) {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
				name = tn + "." + name
			}
		}
		if !want[name] {
			continue
		}
		delete(want, name)
		if ix.funcs[rel] == nil {
			ix.funcs[rel] = map[string]span{}
		}
		ix.funcs[rel][name] = span{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			ix.panics[rel] = append(ix.panics[rel],
				span{fset.Position(call.Pos()).Line, fset.Position(call.End()).Line})
		}
		return true
	})
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//dtt:escape-ok") {
				continue
			}
			if ix.okLine[rel] == nil {
				ix.okLine[rel] = map[int]bool{}
			}
			ix.okLine[rel][fset.Position(c.Pos()).Line] = true
		}
	}
}

func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// check attributes each diagnostic to a pinned function and applies the
// exemptions, returning the violations and the exempt count.
func (ix *index) check(diags []diag) (violations []string, screened int) {
	for _, d := range diags {
		fns, ok := ix.funcs[d.file]
		if !ok {
			continue
		}
		name, in := "", false
		for n, sp := range fns {
			if sp.contains(d.line) {
				name, in = n, true
				break
			}
		}
		if !in {
			continue
		}
		if inSpans(ix.panics[d.file], d.line) {
			screened++
			continue
		}
		if ok := ix.okLine[d.file]; ok[d.line] || ok[d.line-1] {
			screened++
			continue
		}
		violations = append(violations,
			fmt.Sprintf("%s:%d: pinned fast path %s allocates: %s", d.file, d.line, name, d.msg))
	}
	sort.Strings(violations)
	return violations, screened
}

func inSpans(spans []span, line int) bool {
	for _, s := range spans {
		if s.contains(line) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string][]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

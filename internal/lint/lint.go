// Package lint is dttlint: a compile-time checker for the DTT protocol.
//
// The paper's correctness story rests on a discipline, not a type system:
// data flows into support threads only through triggering stores, and the
// main thread synchronises with Wait/Barrier before consuming results.
// internal/sanitize enforces the discipline dynamically with a
// happens-before checker, but a dynamic checker only sees the schedules
// that actually run. This package checks the same discipline statically —
// on every path, at build time, with no runtime cost — by analysing how a
// package uses the runtime API.
//
// Two rules mirror a sanitizer violation class, two more catch wrong
// programs that every schedule runs the same way, and two check the
// runtime's own implementation invariants (see DESIGN.md "Static vs
// dynamic checking" for the mapping):
//
//	read-before-wait   an output-region Load reachable after a triggering
//	                   store with no Wait/Barrier on that path
//	untriggered-write  a plain Store to an attached region outside a
//	                   support body (attached threads miss the update)
//	trigger-capture    a ThreadFunc closure capturing a local reassigned
//	                   after registration
//	config-misuse      discarded Register/Attach results, New without
//	                   Close, Workers on a single-goroutine backend
//	lockorder          acquiring a lower-ranked lock while holding a
//	                   higher-ranked one (lattice in lockorder.go, printed
//	                   by dttlint -locktable), re-acquiring a held
//	                   singleton lock
//	atomics            a field accessed both via sync/atomic and plainly,
//	                   unless the plain side holds the mutex declared by
//	                   a //dtt:guards annotation
//
// Findings are suppressed — one at a time, with a mandatory justification
// — by a trailing or preceding comment:
//
//	out.Store(i, v) //dtt:ignore untriggered-write -- mirror write; thread re-reads via guard
//
// The analysis is whole-program and type-driven: packages load through
// `go list -export` and type-check against compiler export data, so only
// the standard library is needed. A bottom-up fixpoint over the call graph
// summarises every function (trigger/wait transfer, output reads, lock
// effects), run until no summary changes, and the rules consume call sites
// through those summaries — see program.go. The path-sensitive analyses
// (read-before-wait's trigger bit; the held lock set of lockorder, atomics
// and the lock summaries) run on one statement walker, walk.go, which
// follows break, continue, labels and calls that never return for all of
// them alike. Everything is an approximation chosen to keep
// false positives near zero on idiomatic DTT code; the dynamic sanitizer
// remains the authority on what actually raced.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// rule is one named check over a package's facts, with the whole-program
// context (call graph, summaries) alongside.
type rule struct {
	name string
	run  func(pr *program, f *facts, rep *reporter)
}

// ruleTable is the registry, in reporting-priority order.
var ruleTable = []rule{
	{"read-before-wait", runFlowRule},
	{"untriggered-write", runUntriggeredWrite},
	{"trigger-capture", runTriggerCapture},
	{"config-misuse", runConfigMisuse},
	{"lockorder", runLockOrder},
	{"atomics", runAtomics},
}

// ruleAliases maps accepted shorthand names to canonical rule names.
var ruleAliases = map[string]string{
	"readwait": "read-before-wait",
}

// RuleNames returns the names of all rules, in registry order.
func RuleNames() []string {
	names := make([]string, len(ruleTable))
	for i, r := range ruleTable {
		names[i] = r.name
	}
	return names
}

func knownRule(name string) bool {
	for _, r := range ruleTable {
		if r.name == name {
			return true
		}
	}
	return false
}

// Options configures a lint run.
type Options struct {
	// Dir is the directory go list resolves patterns from (the module
	// root); "" means the current directory.
	Dir string
	// Patterns are go package patterns (./..., explicit directories).
	Patterns []string
	// Rules restricts the run to a subset of rule names; nil runs all.
	// Aliases ("readwait") resolve to their canonical names.
	Rules []string
}

// Result is one lint run's findings.
type Result struct {
	// Diagnostics are the unsuppressed findings, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by well-formed //dtt:ignore
	// directives.
	Suppressed int
	// Packages lists the import paths analysed.
	Packages []string
}

// Run loads, type-checks and lints the packages matching opts.Patterns.
func Run(opts Options) (*Result, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	enabled := make(map[string]bool, len(ruleTable))
	if opts.Rules == nil {
		for _, r := range ruleTable {
			enabled[r.name] = true
		}
	} else {
		for _, name := range opts.Rules {
			if canon, ok := ruleAliases[name]; ok {
				name = canon
			}
			if !knownRule(name) {
				return nil, fmt.Errorf("lint: unknown rule %q; known rules: %s", name, strings.Join(RuleNames(), ", "))
			}
			enabled[name] = true
		}
	}

	fset := token.NewFileSet()
	pkgs, err := load(opts.Dir, patterns, fset)
	if err != nil {
		return nil, err
	}

	// Phase 1: per-package facts for everything loaded, so the
	// whole-program layer sees every declaration before any rule runs.
	factsOf := make(map[*Package]*facts, len(pkgs))
	for _, p := range pkgs {
		factsOf[p] = collectFacts(p)
	}
	pr := buildProgram(fset, pkgs, factsOf)
	pr.computeSummaries()
	pr.computeEntryHeld()

	// Phase 2: rules run per package (reporting and //dtt:ignore scoping
	// stay file-local) against the global program.
	res := &Result{}
	for _, p := range pkgs {
		res.Packages = append(res.Packages, p.Path)
		rep := newReporter(fset)
		for _, file := range p.Files {
			dirs, bad := parseIgnores(fset, file)
			res.Diagnostics = append(res.Diagnostics, bad...)
			pos := fset.Position(file.Pos())
			rep.ignores[pos.Filename] = dirs
		}
		for _, r := range ruleTable {
			if enabled[r.name] {
				r.run(pr, factsOf[p], rep)
			}
		}
		res.Diagnostics = append(res.Diagnostics, rep.diags...)
		res.Suppressed += rep.suppressed
	}
	sortDiagnostics(res.Diagnostics)
	sort.Strings(res.Packages)
	return res, nil
}

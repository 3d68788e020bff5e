package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// interprocPkg is the import path of the whole-program golden package.
const interprocPkg = "dtt/internal/lint/testdata/src/interproc"

// buildTestProgram loads the interproc corpus and runs the program layer
// up through summaries, returning the program for structural assertions.
func buildTestProgram(t *testing.T) *program {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := load(moduleRoot, []string{"./internal/lint/testdata/src/interproc"}, fset)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	factsOf := make(map[*Package]*facts, len(pkgs))
	for _, p := range pkgs {
		factsOf[p] = collectFacts(p)
	}
	pr := buildProgram(fset, pkgs, factsOf)
	pr.computeSummaries()
	return pr
}

func mustFunc(t *testing.T, pr *program, name string) *funcInfo {
	t.Helper()
	fi := pr.funcs[interprocPkg+"."+name]
	if fi == nil {
		t.Fatalf("function %s.%s not in call graph; have %v", interprocPkg, name, pr.keys)
	}
	return fi
}

// TestCallGraph pins the structural layer the summaries stand on: call
// edges through mutual recursion, method-value references, and the
// support-only classification.
func TestCallGraph(t *testing.T) {
	pr := buildTestProgram(t)

	// Mutual recursion produces a call edge in each direction.
	even := mustFunc(t, pr, "fireEven")
	odd := mustFunc(t, pr, "fireOdd")
	if !contains(even.calls, odd.key) {
		t.Errorf("fireEven.calls = %v, want to contain %s", even.calls, odd.key)
	}
	if !contains(odd.calls, even.key) {
		t.Errorf("fireOdd.calls = %v, want to contain %s", odd.calls, even.key)
	}

	// The summary fixpoint converges through the cycle: a call to either
	// function triggers on every exit path.
	if !even.sum.exitIfClean {
		t.Error("fireEven summary: exitIfClean = false, want true (the recursion always reaches a TStore)")
	}
	if !odd.sum.exitIfClean {
		t.Error("fireOdd summary: exitIfClean = false, want true")
	}

	// A method value (f := p.fire in MethodValue) is not a call edge — the
	// invocation point is unknowable — but both sides record the escape.
	fire := mustFunc(t, pr, "pipe.fire")
	mv := mustFunc(t, pr, "MethodValue")
	if contains(mv.calls, fire.key) {
		t.Errorf("MethodValue.calls contains %s; a method value must not be a call edge", fire.key)
	}
	if !contains(mv.methodRefs, fire.key) {
		t.Errorf("MethodValue.methodRefs = %v, want to contain %s", mv.methodRefs, fire.key)
	}
	if !contains(fire.methodRefs, fire.key) {
		t.Errorf("pipe.fire.methodRefs = %v, want self-marked as escaping", fire.methodRefs)
	}

	// sync's summary clears the trigger bit: a Wait on every path.
	syncFn := mustFunc(t, pr, "pipe.sync")
	if syncFn.sum.exitIfTriggered {
		t.Error("pipe.sync summary: exitIfTriggered = true, want false (Wait clears the bit)")
	}

	// result's summary carries the hidden output read.
	res := mustFunc(t, pr, "pipe.result")
	if len(res.sum.reads) == 0 {
		t.Error("pipe.result summary has no reads; the hidden Load must be summary-visible")
	}

	// passOn is referenced only inside a registered thread body, so the
	// fixpoint proves it support-only; exported entry points are not.
	if !mustFunc(t, pr, "passOn").supportOnly {
		t.Error("passOn.supportOnly = false, want true (its only ref is inside sq's body)")
	}
	if mustFunc(t, pr, "HiddenTrigger").supportOnly {
		t.Error("HiddenTrigger.supportOnly = true, want false (top-level entry point)")
	}
}

// TestInterprocVsIntra is the acceptance demonstration: the same corpus,
// linted with and without the whole-program layer. The interprocedural
// run catches every hidden-one-call-deep hazard; the intra-only run —
// yesterday's linter — sees none of them, and conversely invents an
// untriggered-write where the program layer can prove the store runs in
// support context.
func TestInterprocVsIntra(t *testing.T) {
	pattern := []string{"./internal/lint/testdata/src/interproc"}

	// Full run, selecting the rule via its alias.
	full, err := Run(Options{Dir: moduleRoot, Patterns: pattern, Rules: []string{"readwait"}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if n := len(full.Diagnostics); n != 3 {
		t.Errorf("interprocedural run: %d read-before-wait findings, want 3 (HiddenTrigger, HiddenRead, Recursive): %v",
			n, full.Diagnostics)
	}

	intra, err := Run(Options{Dir: moduleRoot, Patterns: pattern, Rules: []string{"readwait"}, IntraOnly: true})
	if err != nil {
		t.Fatalf("lint.Run (intra): %v", err)
	}
	if n := len(intra.Diagnostics); n != 0 {
		t.Errorf("intra-only run: %d read-before-wait findings, want 0 (every hazard is hidden one call deep): %v",
			n, intra.Diagnostics)
	}

	// The other direction: without support-only inference, passOn's store
	// to the attached region b is a false positive.
	intraUW, err := Run(Options{Dir: moduleRoot, Patterns: pattern, Rules: []string{"untriggered-write"}, IntraOnly: true})
	if err != nil {
		t.Fatalf("lint.Run (intra untriggered-write): %v", err)
	}
	if n := len(intraUW.Diagnostics); n != 1 {
		t.Errorf("intra-only untriggered-write: %d findings, want exactly the passOn false positive: %v",
			n, intraUW.Diagnostics)
	}
	fullUW, err := Run(Options{Dir: moduleRoot, Patterns: pattern, Rules: []string{"untriggered-write"}})
	if err != nil {
		t.Fatalf("lint.Run (untriggered-write): %v", err)
	}
	if n := len(fullUW.Diagnostics); n != 0 {
		t.Errorf("interprocedural untriggered-write: %d findings, want 0 (passOn proved support-only): %v",
			n, fullUW.Diagnostics)
	}
}

// TestAcquisitionPath: a lock-order inversion or a self-deadlock reached
// through a helper names the full acquisition path, not just the call site
// — the self-deadlock through relock included, which the condition-wait
// exemption (a helper that releases its caller's lock and takes it back)
// must not hide.
func TestAcquisitionPath(t *testing.T) {
	res, err := Run(Options{Dir: moduleRoot,
		Patterns: []string{"./internal/lint/testdata/src/lockorder"},
		Rules:    []string{"lockorder"}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, want := range []string{"lock-order inversion; acquisition path: lockRT", "self-deadlock; acquisition path: relock"} {
		found := false
		for _, d := range res.Diagnostics {
			found = found || strings.Contains(d.Message, want)
		}
		if !found {
			t.Errorf("no lockorder diagnostic reads %q; got: %v", want, res.Diagnostics)
		}
	}
}

// TestDeterministic: two identical runs over the full corpus serialize
// to byte-identical JSON — the property `dttlint -json` consumers (and
// the CI diff step) rely on.
func TestDeterministic(t *testing.T) {
	a := runGolden(t, nil)
	b := runGolden(t, nil)
	aj, err := json.Marshal(a.Diagnostics)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	bj, err := json.Marshal(b.Diagnostics)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("two identical runs diverged:\n run 1: %s\n run 2: %s", aj, bj)
	}
}

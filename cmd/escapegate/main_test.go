package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestGateClean is the integration check CI relies on: the real tree's
// pinned fast paths carry no unexempted heap allocations. The build cache
// replays the -m diagnostics, so this is cheap after the first run.
func TestGateClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", "../.."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "pinned function(s) clean") {
		t.Fatalf("missing summary line:\n%s", out.String())
	}
}

// TestSyntheticViolation: a fabricated escape diagnostic inside a pinned
// function body is attributed and flagged; the same diagnostic outside any
// pinned range is ignored. The pins probed are the entry point and the
// shared pipeline stages behind it, in both files of the store path: a
// stage that is not pinned is not gated, whatever its caller's pin says.
func TestSyntheticViolation(t *testing.T) {
	idx, err := buildIndex("../..", pinned)
	if err != nil {
		t.Fatalf("buildIndex: %v", err)
	}
	for _, pin := range []struct{ file, fn string }{
		{"internal/core/runtime.go", "Runtime.tstore"},
		{"internal/core/runtime.go", "Runtime.admitLocked"},
		{"internal/core/runtime.go", "Runtime.dispatchFired"},
		{"internal/core/runtime.go", "Runtime.runClaims"},
		{"internal/core/runtime.go", "Runtime.endRunLocked"},
		{"internal/core/update.go", "Runtime.mergePlane"},
	} {
		sp, ok := idx.funcs[pin.file][pin.fn]
		if !ok {
			t.Fatalf("%s not indexed in %s", pin.fn, pin.file)
		}
		inside := diag{file: pin.file, line: sp.lo + 1, msg: "x escapes to heap"}
		// The line right after the function's closing brace is outside it.
		outside := diag{file: pin.file, line: sp.hi + 1, msg: "x escapes to heap"}

		violations, _ := idx.check([]diag{inside, outside})
		if len(violations) != 1 {
			t.Fatalf("%s: violations = %v, want exactly the in-body one", pin.fn, violations)
		}
		if !strings.Contains(violations[0], pin.fn) {
			t.Errorf("violation does not name the pinned function %s: %s", pin.fn, violations[0])
		}
	}
}

// TestExemptions: panic-argument allocations and //dtt:escape-ok lines are
// screened, not flagged. Both sites exist in the real tree: tstoreBatch's
// range panic and its scratch warm-up.
func TestExemptions(t *testing.T) {
	idx, err := buildIndex("../..", pinned)
	if err != nil {
		t.Fatalf("buildIndex: %v", err)
	}
	file := "internal/core/runtime.go"
	var panicLine, okLine int
	sp := idx.funcs[file]["Runtime.tstoreBatch"]
	for _, ps := range idx.panics[file] {
		if sp.contains(ps.lo) {
			panicLine = ps.lo
			break
		}
	}
	for l := range idx.okLine[file] {
		if sp.contains(l) {
			okLine = l
			break
		}
	}
	if panicLine == 0 || okLine == 0 {
		t.Fatalf("expected a panic and an escape-ok line inside tstoreBatch (got %d, %d)", panicLine, okLine)
	}
	violations, screened := idx.check([]diag{
		{file: file, line: panicLine, msg: "fmt.Sprintf(...) escapes to heap"},
		{file: file, line: okLine, msg: "make([]int32, shards) escapes to heap"},
		{file: file, line: okLine + 1, msg: "moved to heap: y"}, // comment on the line above also exempts
	})
	if len(violations) != 0 {
		t.Fatalf("exempt diagnostics flagged: %v", violations)
	}
	if screened != 3 {
		t.Errorf("screened = %d, want 3", screened)
	}
}

// TestRenameProtection: a pin naming a function that does not exist fails
// index construction instead of silently checking nothing.
func TestRenameProtection(t *testing.T) {
	_, err := buildIndex("../..", map[string][]string{
		"internal/core": {"Runtime.noSuchFunction"},
	})
	if err == nil || !strings.Contains(err.Error(), "noSuchFunction") {
		t.Fatalf("err = %v, want pin-table failure naming the function", err)
	}
}

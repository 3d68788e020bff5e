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
		{"internal/core/runtime.go", "Runtime.admitRunLocked"},
		{"internal/core/runtime.go", "Runtime.dispatchFired"},
		{"internal/core/runtime.go", "Runtime.worker"},
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
// range panic and DeltaPlane.ApplyBatch's first-touch stripe allocation.
func TestExemptions(t *testing.T) {
	idx, err := buildIndex("../..", pinned)
	if err != nil {
		t.Fatalf("buildIndex: %v", err)
	}
	panicFile, okFile := "internal/core/runtime.go", "internal/mem/delta.go"
	var panicLine, okLine int
	sp := idx.funcs[panicFile]["Runtime.tstoreBatch"]
	for _, ps := range idx.panics[panicFile] {
		if sp.contains(ps.lo) {
			panicLine = ps.lo
			break
		}
	}
	sp = idx.funcs[okFile]["DeltaPlane.ApplyBatch"]
	for l := range idx.okLine[okFile] {
		if sp.contains(l) {
			okLine = l
			break
		}
	}
	if panicLine == 0 || okLine == 0 {
		t.Fatalf("expected a panic inside tstoreBatch and an escape-ok line inside DeltaPlane.ApplyBatch (got %d, %d)", panicLine, okLine)
	}
	violations, screened := idx.check([]diag{
		{file: panicFile, line: panicLine, msg: "fmt.Sprintf(...) escapes to heap"},
		{file: okFile, line: okLine, msg: "make([]deltaCell, p.buf.Len()) escapes to heap"},
		{file: okFile, line: okLine + 1, msg: "moved to heap: y"}, // comment on the line above also exempts
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

// TestInlinePins: a pinned leaf the compiler stops calling inlinable is
// reported by name, whatever the receiver's spelling, and the real tree's
// verdicts satisfy the real table (TestGateClean covers that end to end).
func TestInlinePins(t *testing.T) {
	table := map[string][]string{
		"internal/mem":   {"Buffer.Load", "Buffer.Store", "System.Compute"},
		"internal/queue": {"Snapshot.Each", "pendBit"},
	}
	const out = `# dtt/internal/mem
internal/mem/mem.go:235:6: can inline (*System).Compute
internal/mem/mem.go:246:6: cannot inline (*System).computeProbed: marked go:noinline
internal/mem/mem.go:293:6: can inline (*Buffer).Load
internal/mem/mem.go:324:6: can inline (*Buffer).Store
internal/mem/mem.go:330:6: cannot inline (*Buffer).swap: marked go:noinline
internal/queue/queue.go:80:6: can inline pendBit
internal/queue/registry.go:150:6: can inline Snapshot.Each
internal/queue/queue.go:161:16: make([]int, int(t) + 1) escapes to heap
`
	heap, inlinable := parseDiags(out)
	if len(heap) != 1 || heap[0].file != "internal/queue/queue.go" || heap[0].line != 161 {
		t.Fatalf("heap diagnostics = %+v, want the one escape line", heap)
	}
	if v := notInlinable(table, inlinable); len(v) != 0 {
		t.Fatalf("every pin has its \"can inline\" line, yet: %v", v)
	}

	_, inlinable = parseDiags(strings.Replace(out, "can inline (*Buffer).Store", "cannot inline (*Buffer).Store: function too complex: cost 87 exceeds budget 80", 1))
	v := notInlinable(table, inlinable)
	if len(v) != 1 || !strings.Contains(v[0], "internal/mem") || !strings.Contains(v[0], "Buffer.Store") {
		t.Fatalf("violations = %v, want exactly Buffer.Store of internal/mem named", v)
	}
	// System.Compute before it was split: the fan-out in its body priced it
	// out, and every kernel arithmetic op paid a call.
	_, inlinable = parseDiags(strings.Replace(out, "can inline (*System).Compute", "cannot inline (*System).Compute: function too complex: cost 136 exceeds budget 80", 1))
	v = notInlinable(table, inlinable)
	if len(v) != 1 || !strings.Contains(v[0], "internal/mem") || !strings.Contains(v[0], "System.Compute") {
		t.Fatalf("violations = %v, want exactly System.Compute of internal/mem named", v)
	}
	// A same-named function of another package does not satisfy the pin.
	_, inlinable = parseDiags("internal/core/x.go:1:6: can inline pendBit\n")
	if v := notInlinable(map[string][]string{"internal/queue": {"pendBit"}}, inlinable); len(v) != 1 {
		t.Fatalf("violations = %v, want internal/queue's pendBit missing", v)
	}
}

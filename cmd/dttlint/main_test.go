package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Smoke tests: the linter CLI loads real packages, reports findings with
// the documented exit codes, and emits parseable JSON — without exec'ing
// anything. Package patterns resolve from the module root via -C.

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestLintCleanPackage(t *testing.T) {
	code, out, errb := runCLI(t, "-C", "../..", "./internal/queue")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb, out)
	}
	if !strings.Contains(out, "dttlint: clean") {
		t.Fatalf("clean run missing summary line:\n%s", out)
	}
}

func TestLintQuiet(t *testing.T) {
	code, out, _ := runCLI(t, "-C", "../..", "-q", "./internal/queue")
	if code != 0 || out != "" {
		t.Fatalf("quiet clean run: exit %d, stdout %q; want 0 and empty", code, out)
	}
}

func TestLintFindings(t *testing.T) {
	code, out, errb := runCLI(t, "-C", "../..", "./internal/lint/testdata/src/untriggered")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb)
	}
	if !strings.Contains(out, "untriggered-write") || !strings.Contains(out, "untriggered.go:") {
		t.Fatalf("findings output missing rule or position:\n%s", out)
	}
	if !strings.Contains(errb, "finding(s)") {
		t.Fatalf("stderr missing findings summary: %s", errb)
	}
}

func TestLintJSON(t *testing.T) {
	code, out, errb := runCLI(t, "-C", "../..", "-json", "./internal/lint/testdata/src/untriggered")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb)
	}
	var diags []struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Rule string `json:"rule"`
		Hint string `json:"hint"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	if len(diags) == 0 || diags[0].Rule != "untriggered-write" || diags[0].Line == 0 {
		t.Fatalf("JSON diagnostics wrong: %+v", diags)
	}
}

func TestLintJSONCleanIsEmptyArray(t *testing.T) {
	code, out, _ := runCLI(t, "-C", "../..", "-json", "./internal/queue")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Fatalf("clean JSON output = %q, want []", out)
	}
}

func TestLintRuleSelection(t *testing.T) {
	// With only read-before-wait enabled, the untriggered package is clean.
	code, _, errb := runCLI(t, "-C", "../..", "-rules", "read-before-wait", "-q",
		"./internal/lint/testdata/src/untriggered")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errb)
	}
}

func TestLintLockTable(t *testing.T) {
	code, out, errb := runCLI(t, "-locktable")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errb)
	}
	for _, want := range []string{"| rank | lock | role |", "Runtime.mu", "dispatcher.mu"} {
		if !strings.Contains(out, want) {
			t.Fatalf("lock table missing %q:\n%s", want, out)
		}
	}
}

func TestLintBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-not-a-flag"},
		{"-rules", "no-such-rule", "-C", "../..", "./internal/queue"},
		{"-C", "../..", "./no/such/package"},
	} {
		code, _, errb := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb)
		}
		if errb == "" {
			t.Fatalf("args %v: no diagnostic on stderr", args)
		}
	}
}

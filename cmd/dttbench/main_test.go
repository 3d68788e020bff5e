package main

import (
	"bytes"
	"strings"
	"testing"

	"dtt/internal/harness"
)

// TestBenchListSmoke: -list prints exactly one line per registered
// experiment, in registry order, each starting with its ID.
func TestBenchListSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	exps := harness.Experiments()
	if len(lines) != len(exps) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(exps), out.String())
	}
	for i, e := range exps {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("line %d = %q, want experiment %s", i, lines[i], e.ID)
		}
	}
}

func TestBenchBadExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("stderr missing diagnostic: %s", errb.String())
	}
}

// TestBenchRemovedFlags: the sweep-era flags are gone, so a stale script
// passing one fails with the flag package's usage instead of silently
// running every experiment.
func TestBenchRemovedFlags(t *testing.T) {
	for _, f := range []string{"-scale-sweep", "-serving-sweep", "-serving-smoke", "-fastpath", "-force-single-core"} {
		var out, errb bytes.Buffer
		if code := run([]string{f}, &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2", f, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: ran something before rejecting the flag:\n%s", f, out.String())
		}
		for _, want := range []string{"flag provided but not defined: " + f, "Usage of dttbench", "-exp string"} {
			if !strings.Contains(errb.String(), want) {
				t.Errorf("%s: stderr missing %q:\n%s", f, want, errb.String())
			}
		}
	}
}

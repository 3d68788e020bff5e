package main

import (
	"bytes"
	"strings"
	"testing"

	"dtt/internal/core"
	"dtt/internal/serve"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSmokeMode is the same path `make serve-smoke` runs in CI: an
// in-process loopback server, one scripted session, a /metrics scrape
// and the counter identity asserted from the scraped values.
func TestSmokeMode(t *testing.T) {
	code, out, errb := runCLI(t, "-smoke")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "serve-smoke: ok") || !strings.Contains(out, "scraped identity holds") {
		t.Fatalf("smoke output:\n%s", out)
	}
}

func TestLoadDriverAgainstServer(t *testing.T) {
	rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	defer rt.Close()
	srv := serve.NewServer(rt, serve.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	code, out, errb := runCLI(t,
		"-addr", addr, "-sessions", "3", "-threads", "2", "-batches", "5", "-words", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "30 batches ok") {
		t.Fatalf("output missing batch total:\n%s", out)
	}
	if c := srv.Counters(); c.Batches != 30 || c.Stores != 240 {
		t.Fatalf("server saw %d batches / %d stores, want 30 / 240", c.Batches, c.Stores)
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatalf("exit %d with no -addr, want 2", code)
	}
	if code, _, _ := runCLI(t, "-addr", "127.0.0.1:1"); code != 1 {
		t.Fatalf("exit %d against a dead server, want 1", code)
	}
}

package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// Smoke tests: every exposed mode of the binary parses, runs a small
// workload and prints what its users grep for, without exec'ing anything.

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunDTTSmoke(t *testing.T) {
	code, out, errb := runCLI(t, "-workload", "mcf", "-iters", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"mcf dtt (deferred): checksum", "tstores", "triggers fired", "support instances"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBaselineSmoke(t *testing.T) {
	code, out, errb := runCLI(t, "-workload", "equake", "-mode", "baseline", "-iters", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "equake baseline: checksum") {
		t.Fatalf("output missing baseline checksum line:\n%s", out)
	}
}

func TestRunSeededBackendSmoke(t *testing.T) {
	code, out, errb := runCLI(t, "-workload", "mcf", "-iters", "3", "-backend", "seeded", "-sched-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "mcf dtt (seeded(7)): checksum") {
		t.Fatalf("output missing seeded checksum line:\n%s", out)
	}
}

// TestRunCheckClean runs real workloads under the protocol sanitizer on
// both single-goroutine backends: the shipped workloads must be
// discipline-clean.
func TestRunCheckClean(t *testing.T) {
	for _, backend := range []string{"deferred", "seeded"} {
		for _, w := range []string{"mcf", "art"} {
			code, out, errb := runCLI(t, "-workload", w, "-iters", "3", "-backend", backend, "-check")
			if code != 0 {
				t.Fatalf("%s/%s: exit %d, stderr: %s", w, backend, code, errb)
			}
			if !strings.Contains(out, "sanitizer: clean") {
				t.Fatalf("%s/%s: output missing sanitizer verdict:\n%s", w, backend, out)
			}
		}
	}
}

// TestRunTimelineSmoke: -timeline attaches a recorder to the single-goroutine
// backend that was asked for — deferred by default, and a seeded one replays
// — and refuses the immediate backend before building a runtime instead of
// silently running something else.
func TestRunTimelineSmoke(t *testing.T) {
	for _, row := range []struct {
		args []string
		ran  string
	}{
		{nil, "deferred+recorder"},
		{[]string{"-backend", "seeded", "-sched-seed", "7"}, "seeded(7)+recorder"},
	} {
		args := append([]string{"-workload", "mcf", "-iters", "2", "-timeline"}, row.args...)
		code, out, errb := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb)
		}
		if !strings.Contains(out, "mcf dtt ("+row.ran+"): checksum") || !strings.Contains(out, "timeline: ") {
			t.Fatalf("%v: output missing the %s checksum line or the timeline:\n%s", args, row.ran, out)
		}
		if _, again, _ := runCLI(t, args...); stripWall(again) != stripWall(out) {
			t.Fatalf("%v: a second run printed a different timeline:\n%s\n%s", args, out, again)
		}
	}
	code, out, errb := runCLI(t, "-workload", "mcf", "-iters", "2", "-timeline", "-backend", "immediate")
	if code != 2 || out != "" || !strings.Contains(errb, "-timeline") {
		t.Fatalf("-timeline -backend immediate: exit %d, stdout %q, stderr %q; want a usage error", code, out, errb)
	}
}

// stripWall drops the result line, the only one carrying a wall time.
func stripWall(out string) string {
	_, rest, _ := strings.Cut(out, "\n")
	return rest
}

// lockedBuf is a bytes.Buffer safe to read while run is still writing.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunMetricsEndpoint is the CLI acceptance path: -metrics announces the
// bound address on stderr, and a scrape against it while the process holds
// returns Prometheus text carrying the runtime's counters.
func TestRunMetricsEndpoint(t *testing.T) {
	var out, errb lockedBuf
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-workload", "mcf", "-backend", "immediate", "-iters", "50",
			"-metrics", "127.0.0.1:0", "-metrics-hold", "3s",
		}, &out, &errb)
	}()

	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never announced; stderr: %s", errb.String())
		}
		if s := errb.String(); strings.Contains(s, "http://") {
			url = strings.Fields(s[strings.Index(s, "http://"):])[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dtt_tstores_total", "dtt_silent_total", "# TYPE dtt_trigger_dispatch_latency_ns histogram"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	if code := <-done; code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	cases := [][]string{
		{"-workload", "nosuch"},
		{"-mode", "nosuch"},
		{"-backend", "nosuch"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		code, _, errb := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb)
		}
		if errb == "" {
			t.Fatalf("args %v: no diagnostic on stderr", args)
		}
	}
}

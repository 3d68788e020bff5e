package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/serve"
)

func TestNormalizeLiveURL(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"127.0.0.1:9090", "http://127.0.0.1:9090/debug/vars"},
		{"http://host:1/", "http://host:1/debug/vars"},
		{"http://host:1/debug/vars", "http://host:1/debug/vars"},
	} {
		if got := normalizeLiveURL(tc.in); got != tc.want {
			t.Errorf("normalizeLiveURL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestLiveAgainstRuntime points -live at a real runtime's exporter while a
// workload fires triggers, and checks the rendered rate table and totals.
func TestLiveAgainstRuntime(t *testing.T) {
	rt, err := core.New(core.Config{
		Backend: core.BackendImmediate, Workers: 2, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	r := rt.NewRegion("live", 8)
	id := rt.Register("w", func(tg core.Trigger) { _ = tg.Region.Load(tg.Index) })
	if err := rt.Attach(id, r, 0, 8); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	go func() {
		for j := 0; !stop.Load(); j++ {
			r.TStore(j%8, uint64(j+1))
		}
	}()
	defer stop.Store(true)

	var out, errb bytes.Buffer
	code := run([]string{"-live", rt.MetricsAddr(), "-interval", "30ms", "-samples", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"Live trigger rates", "tstores/s", "squash%", "totals: tstores"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	// Two sample rows plus title, header, separator and totals.
	if rows := strings.Count(s, "\n"); rows < 6 {
		t.Fatalf("expected 2 rate rows, got:\n%s", s)
	}
}

// TestLiveShowsServeTotals points -live at a dttserve exporter and checks
// the network plane's totals line renders alongside the trigger rates.
func TestLiveShowsServeTotals(t *testing.T) {
	rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := serve.NewServer(rt, serve.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	maddr, err := srv.StartMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cs, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Batch(h, 0, []mem.Word{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run([]string{"-live", maddr, "-interval", "10ms", "-samples", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "serve: sessions 1 live / 1 total") {
		t.Fatalf("output missing serve totals line:\n%s", s)
	}
	if !strings.Contains(s, "batches 1 (3 stores)") {
		t.Fatalf("serve totals line has wrong batch accounting:\n%s", s)
	}
}

func TestLiveErrors(t *testing.T) {
	// A server that answers JSON without a dtt payload: not a DTT endpoint.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()
	var out, errb bytes.Buffer
	if code := run([]string{"-live", srv.URL}, &out, &errb); code != 1 {
		t.Fatalf("non-DTT endpoint: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "dtt") {
		t.Fatalf("stderr missing diagnostic: %s", errb.String())
	}

	errb.Reset()
	if code := run([]string{"-live", "127.0.0.1:1", "-interval", "1ms"}, &out, &errb); code != 1 {
		t.Fatalf("unreachable endpoint: exit %d, want 1", code)
	}

	errb.Reset()
	if code := run([]string{"-live", "x", "-samples", "0"}, &out, &errb); code != 2 {
		t.Fatalf("bad -samples: exit %d, want 2", code)
	}
}

// TestLiveSurvivesTransientPollFailure: a scrape that fails mid-run
// renders a dash row and sampling continues; the next good sample deltas
// across the gap, the quantile columns come back, and the exit code is 0
// because the run ended on a reachable target.
func TestLiveSurvivesTransientPollFailure(t *testing.T) {
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := polls.Add(1)
		if n == 3 { // baseline is poll 1, so this fails interval sample 2
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, `{"dtt":{"counters":{"tstores":%d,"silent":0,"fired":%d,"squashed":0,"executed":%d},"gauges":{"queue_len":0},"histograms":{"trigger_dispatch_latency_ns":{"bounds":[1000,32000],"counts":[%d,%d,0],"sum":0}}}}`,
			n*1000, n*100, n*100, n*50, n*10)
	}))
	defer srv.Close()
	var out, errb bytes.Buffer
	code := run([]string{"-live", srv.URL, "-interval", "1ms", "-samples", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d despite recovery\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{"p50(ns)", "p99(ns)", "totals: tstores 4000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(errb.String(), "sample 2") {
		t.Fatalf("stderr does not name the failed sample: %s", errb.String())
	}
	// The post-gap row deltas poll 2 -> poll 4: 100 obs in (0,1000] and 20
	// in (1000,32000], so p50 = 600 and p99 = 30140 by linear interpolation.
	if !strings.Contains(s, "600") || !strings.Contains(s, "30140") {
		t.Fatalf("quantile columns missing the interval's bucket-delta estimates:\n%s", s)
	}
}

// TestLiveFinalFailurePrintsTable: when the target stays down, the run
// still prints the table it accumulated (all dash rows here) and exits
// nonzero — the table is the record of when the target died.
func TestLiveFinalFailurePrintsTable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	var out, errb bytes.Buffer
	code := run([]string{"-live", srv.URL, "-interval", "1ms", "-samples", "2"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Live trigger rates") {
		t.Fatalf("no table printed on final failure:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "end of the run") {
		t.Fatalf("stderr missing the final-failure diagnostic: %s", errb.String())
	}
}

package core

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dtt/internal/telemetry"
)

// startStatsWorkload spins up an immediate-backend runtime with producers
// hammering the trigger ranges of eight threads, stores triggering stores each. The
// returned done channel closes when the producers finish; the caller still
// owns Barrier/Close.
func startStatsWorkload(t *testing.T, rt *Runtime, stores int) <-chan struct{} {
	t.Helper()
	const threads, span = 8, 8
	in := rt.NewRegion("in", threads*span)
	out := rt.NewRegion("out", threads*span)
	for i := 0; i < threads; i++ {
		id := rt.Register(fmt.Sprintf("t%d", i), func(tg Trigger) {
			out.Store(tg.Index, tg.Region.Load(tg.Index)+1)
		})
		if err := rt.Attach(id, in, i*span, (i+1)*span); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	const producers = 4
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < stores; j++ {
				idx := (p*13 + j*5) % (threads * span)
				// j/3 repeats values, so a share of the stores is silent.
				in.TStore(idx, uint64(j/3+1))
			}
		}(p)
	}
	go func() { wg.Wait(); close(done) }()
	return done
}

// TestStatsSnapshotNotTorn is the regression test for the torn-snapshot bug:
// Stats used to load one process-wide atomic per counter, so a reader
// interleaving with a firing store could observe Fired without the matching
// Enqueued. Now the dispatch counters are read under the dispatch lock, and
// this test polls Stats concurrently with producers, asserting the
// documented identity on every single read — not just at quiescence.
func TestStatsSnapshotNotTorn(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2, QueueCapacity: 8})
	done := startStatsWorkload(t, rt, 2500)

	reads := 0
	for {
		st := rt.Stats()
		reads++
		if st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
			t.Fatalf("read %d: torn snapshot: Fired %d != Enqueued %d + Squashed %d + Overflowed %d",
				reads, st.Fired, st.Enqueued, st.Squashed, st.Overflowed)
		}
		if st.Silent > st.TStores {
			t.Fatalf("read %d: Silent %d > TStores %d", reads, st.Silent, st.TStores)
		}
		select {
		case <-done:
			rt.Barrier()
			st := rt.Stats()
			if st.Overflowed != st.InlineRuns+st.Dropped {
				t.Fatalf("quiesced: Overflowed %d != InlineRuns %d + Dropped %d",
					st.Overflowed, st.InlineRuns, st.Dropped)
			}
			if reads < 10 {
				t.Logf("only %d concurrent reads; workload finished early", reads)
			}
			return
		default:
		}
	}
}

// TestTelemetrySnapshotConsistency drives a deterministic deferred workload
// and checks the exporter snapshot against the runtime's own accounting:
// counter identity, the queue-length gauge reading the drained queue, and
// the histogram counts matching the dispatch counts they observe.
func TestTelemetrySnapshotConsistency(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendDeferred, Telemetry: true})
	r := rt.NewRegion("r", 16)
	var runs int64
	for i := 0; i < 4; i++ {
		id := rt.Register(fmt.Sprintf("t%d", i), func(Trigger) { runs++ })
		if err := rt.Attach(id, r, i*4, (i+1)*4); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 5; round++ {
		for j := 0; j < 16; j++ {
			r.TStore(j, uint64(round))
			r.TStore(j, uint64(round)) // silent re-store
		}
		rt.Barrier()
	}

	snap := rt.TelemetrySnapshot()
	counters := make(map[string]int64)
	for _, m := range snap.Counters {
		if m.Help == "" {
			t.Errorf("counter %s has no help text", m.Name)
		}
		counters[m.Name] = m.Value
	}
	if counters["dtt_fired_total"] != counters["dtt_enqueued_total"]+counters["dtt_squashed_total"]+counters["dtt_overflowed_total"] {
		t.Fatalf("snapshot identity broken: %v", counters)
	}
	if counters["dtt_tstores_total"] == 0 || counters["dtt_silent_total"] == 0 {
		t.Fatalf("workload not observed: %v", counters)
	}
	if got := counters["dtt_executed_total"]; got != runs {
		t.Fatalf("dtt_executed_total = %d, body ran %d times", got, runs)
	}
	if got, ok := counters["dtt_worker_wakes_total"]; !ok || got != 0 {
		t.Fatalf("dtt_worker_wakes_total = %d (exported %v), want 0 on a backend without workers", got, ok)
	}

	for _, g := range snap.Gauges {
		if g.Name == "dtt_queue_len" && g.Value != 0 {
			t.Fatalf("dtt_queue_len = %d after Barrier, want 0", g.Value)
		}
	}
	deq := queueCounters(rt).Dequeued

	hists := make(map[string]telemetry.HistogramSnapshot)
	for _, h := range snap.Histograms {
		hists[h.Name] = h
	}
	// Every dequeued entry was stamped at enqueue and observed at dispatch;
	// every dispatched or inline instance observed a run duration.
	if got := hists["dtt_trigger_dispatch_latency_ns"].Count(); got != deq {
		t.Fatalf("latency count %d != dequeued %d", got, deq)
	}
	want := counters["dtt_executed_total"] + counters["dtt_inline_runs_total"]
	if got := hists["dtt_run_duration_ns"].Count(); got != want {
		t.Fatalf("run-duration count %d != executed+inline %d", got, want)
	}
	if got := hists["dtt_queue_depth"].Count(); got != counters["dtt_enqueued_total"] {
		t.Fatalf("queue-depth count %d != enqueued %d", got, counters["dtt_enqueued_total"])
	}
}

// parsePromCounters extracts the un-labelled "name value" series from a
// Prometheus text exposition.
func parsePromCounters(t *testing.T, body string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.ContainsAny(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}

// TestMetricsEndpointDuringLoad is the acceptance check from the issue: a
// runtime with MetricsAddr serving a live workload must answer /metrics with
// Prometheus text whose counter identity holds on every scrape, and answer
// /debug/vars with JSON carrying the same counters. After Close the
// exporter must be gone.
func TestMetricsEndpointDuringLoad(t *testing.T) {
	rt := newRuntime(t, Config{
		Backend: BackendImmediate, Workers: 2, QueueCapacity: 8,
		MetricsAddr: "127.0.0.1:0",
	})
	addr := rt.MetricsAddr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("MetricsAddr = %q, want a resolved host:port", addr)
	}
	if len(rt.TelemetrySnapshot().Histograms) == 0 {
		t.Fatal("MetricsAddr did not imply Telemetry")
	}
	// Enough stores that several scrapes land while producers are firing.
	done := startStatsWorkload(t, rt, 40000)

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	scrapes := 0
	for {
		body := get("/metrics")
		scrapes++
		c := parsePromCounters(t, body)
		if _, ok := c["dtt_tstores_total"]; !ok {
			t.Fatalf("scrape %d: no dtt_tstores_total in:\n%s", scrapes, body)
		}
		if c["dtt_fired_total"] != c["dtt_enqueued_total"]+c["dtt_squashed_total"]+c["dtt_overflowed_total"] {
			t.Fatalf("scrape %d: torn scrape: fired %d != enqueued %d + squashed %d + overflowed %d",
				scrapes, c["dtt_fired_total"], c["dtt_enqueued_total"], c["dtt_squashed_total"], c["dtt_overflowed_total"])
		}
		select {
		case <-done:
			rt.Barrier()
			// The quiesced exposition carries the histogram series too.
			body := get("/metrics")
			for _, want := range []string{
				"# TYPE dtt_trigger_dispatch_latency_ns histogram",
				"dtt_run_duration_ns_count",
				"# TYPE dtt_queue_len gauge",
			} {
				if !strings.Contains(body, want) {
					t.Errorf("final scrape missing %q", want)
				}
			}
			var doc struct {
				DTT struct {
					Counters map[string]int64 `json:"counters"`
				} `json:"dtt"`
			}
			if err := json.Unmarshal([]byte(get("/debug/vars")), &doc); err != nil {
				t.Fatalf("/debug/vars: %v", err)
			}
			c := doc.DTT.Counters
			if c["fired"] != c["enqueued"]+c["squashed"]+c["overflowed"] {
				t.Fatalf("/debug/vars identity broken: %v", c)
			}
			rt.Close()
			if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
				t.Fatal("exporter still answering after Close")
			}
			if scrapes < 3 {
				t.Logf("only %d concurrent scrapes; workload finished early", scrapes)
			}
			return
		default:
		}
	}
}

// TestRegisterPprofLabels pins the label plumbing: with telemetry on, every
// registered thread carries a precomputed pprof label context naming the
// thread (so per-instance labelling allocates nothing); with telemetry off
// the context stays nil and the instance path never touches pprof.
func TestRegisterPprofLabels(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendDeferred, Telemetry: true})
	id := rt.Register("decoder", func(Trigger) {})
	te := rt.threadsSnap()[id]
	if te.labels == nil {
		t.Fatal("telemetry on: no label context precomputed at Register")
	}
	got := make(map[string]string)
	pprof.ForLabels(te.labels, func(k, v string) bool { got[k] = v; return true })
	if got["dtt_thread"] != "decoder" || got["dtt_thread_id"] != strconv.Itoa(int(id)) {
		t.Fatalf("labels = %v", got)
	}

	off := newRuntime(t, Config{Backend: BackendDeferred})
	id = off.Register("decoder", func(Trigger) {})
	if off.threadsSnap()[id].labels != context.Context(nil) {
		t.Fatal("telemetry off: label context should stay nil")
	}
}

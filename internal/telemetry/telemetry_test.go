package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	tel := New()
	h := &tel.QueueDepth // bounds 1,2,4,...
	for _, v := range []int64{0, 1, 2, 3, 5000, -7} {
		h.Observe(v)
	}
	snap := tel.Histograms()[2]
	if snap.Name != "dtt_queue_depth" {
		t.Fatalf("histogram order changed: got %q", snap.Name)
	}
	// 0, 1 and the clamped -7 land in the <=1 bucket, 2 in <=2, 3 in <=4,
	// 5000 in +Inf.
	if got := snap.Counts[0]; got != 3 {
		t.Errorf("<=1 bucket = %d, want 3", got)
	}
	if got := snap.Counts[1]; got != 1 {
		t.Errorf("<=2 bucket = %d, want 1", got)
	}
	if got := snap.Counts[2]; got != 1 {
		t.Errorf("<=4 bucket = %d, want 1", got)
	}
	if got := snap.Counts[len(snap.Counts)-1]; got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	if got, want := snap.Count(), int64(6); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := snap.Sum, int64(0+1+2+3+5000); got != want {
		t.Errorf("Sum = %d, want %d", got, want)
	}
	if snap.Mean() <= 0 {
		t.Errorf("Mean = %v, want > 0", snap.Mean())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	tel := New()
	const perG, gs = 5000, 8
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := &tel.TriggerLatency
			for i := 0; i < perG; i++ {
				h.Observe(int64(i))
			}
		}(g)
	}
	wg.Wait()
	if got, want := tel.Histograms()[0].Count(), int64(perG*gs); got != want {
		t.Fatalf("concurrent Count = %d, want %d", got, want)
	}
}

// staticSource serves a fixed snapshot, standing in for a runtime.
type staticSource struct{ snap Snapshot }

func (s staticSource) TelemetrySnapshot() Snapshot { return s.snap }

func testSnapshot() Snapshot {
	tel := New()
	tel.TriggerLatency.Observe(700)
	tel.TriggerLatency.Observe(70_000)
	tel.QueueDepth.Observe(3)
	return Snapshot{
		Counters: []Metric{
			{Name: "dtt_tstores_total", Help: "triggering stores issued", Value: 42},
			{Name: "dtt_fired_total", Help: "triggers fired", Value: 7},
		},
		Gauges:     []Metric{{Name: "dtt_queue_len", Help: "pending entries", Value: 2}},
		Histograms: tel.Histograms(),
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, testSnapshot())
	out := b.String()
	for _, want := range []string{
		"# HELP dtt_tstores_total triggering stores issued",
		"# TYPE dtt_tstores_total counter",
		"dtt_tstores_total 42",
		"# TYPE dtt_queue_len gauge",
		"dtt_queue_len 2",
		"# TYPE dtt_trigger_dispatch_latency_ns histogram",
		"dtt_trigger_dispatch_latency_ns_bucket{le=\"1000\"} 1",
		"dtt_trigger_dispatch_latency_ns_bucket{le=\"+Inf\"} 2",
		"dtt_trigger_dispatch_latency_ns_sum 70700",
		"dtt_trigger_dispatch_latency_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestWritePrometheusCumulative pins the le buckets to be cumulative: the
// 70µs observation must appear in every bucket at or above its own.
func TestWritePrometheusCumulative(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, testSnapshot())
	out := b.String()
	if !strings.Contains(out, "dtt_trigger_dispatch_latency_ns_bucket{le=\"100000\"} 2") {
		t.Fatalf("bucket counts not cumulative:\n%s", out)
	}
}

func TestWriteVarsParses(t *testing.T) {
	var b strings.Builder
	if err := WriteVars(&b, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("vars output is not valid JSON: %v\n%s", err, b.String())
	}
	// The standard expvar keys ride along with ours.
	for _, key := range []string{"cmdline", "memstats", "dtt"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("vars output missing %q", key)
		}
	}
	var p varsPayload
	if err := json.Unmarshal(doc["dtt"], &p); err != nil {
		t.Fatal(err)
	}
	if p.Counters["tstores"] != 42 {
		t.Errorf("counters.tstores = %d, want 42", p.Counters["tstores"])
	}
	if p.Gauges["queue_len"] != 2 {
		t.Errorf("gauges.queue_len = %d, want 2", p.Gauges["queue_len"])
	}
	h, ok := p.Histograms["trigger_dispatch_latency_ns"]
	if !ok || h.Sum != 70700 {
		t.Errorf("histograms.trigger_dispatch_latency_ns = %+v (ok=%v), want sum 70700", h, ok)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(staticSource{snap: testSnapshot()}))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "dtt_tstores_total 42") {
		t.Errorf("/metrics body missing counter:\n%s", body)
	}

	body, ctype = get("/debug/vars")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/vars content type %q", ctype)
	}
	if !strings.Contains(body, "\"tstores\":42") {
		t.Errorf("/debug/vars body missing counter:\n%s", body)
	}
}

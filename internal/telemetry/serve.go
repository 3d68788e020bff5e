package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
)

// varsPayload is the "dtt" value of the /debug/vars document. Counter and
// gauge keys are the Prometheus names with the dtt_ prefix and _total
// suffix stripped (dtt_inline_runs_total -> inline_runs), so the JSON
// stays readable and cmd/dttprof -live can index it directly.
type varsPayload struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// varsKey converts a Prometheus metric name to its JSON key.
func varsKey(name string) string {
	return strings.TrimSuffix(strings.TrimPrefix(name, "dtt_"), "_total")
}

// varsDoc builds the expvar payload from a snapshot.
func varsDoc(s Snapshot) varsPayload {
	p := varsPayload{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for _, m := range s.Counters {
		p.Counters[varsKey(m.Name)] = m.Value
	}
	for _, m := range s.Gauges {
		p.Gauges[varsKey(m.Name)] = m.Value
	}
	for _, h := range s.Histograms {
		p.Histograms[varsKey(h.Name)] = h
	}
	return p
}

// WriteVars renders the expvar document: the process's published expvar
// variables (cmdline, memstats, anything the embedding program added)
// plus a "dtt" object carrying the snapshot. The output is what the
// standard expvar handler would serve with dtt published as an
// expvar.Func, produced without touching the process-global registry so
// two runtimes exporting concurrently cannot collide on a name.
func WriteVars(w io.Writer, s Snapshot) error {
	dtt, err := json.Marshal(varsDoc(s))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key == "dtt" {
			return // ours wins; a stale global publish would duplicate the key
		}
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "%q: %s\n}\n", "dtt", dtt)
	return nil
}

// Handler returns the exporter's HTTP handler: Prometheus text at
// /metrics, the expvar document at /debug/vars. Every request takes a
// fresh snapshot from src.
func Handler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, src.TelemetrySnapshot())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// The only error path is JSON-marshalling the snapshot, whose
		// types marshal unconditionally; dropping the scrape is the right
		// failure mode for an exporter regardless.
		_ = WriteVars(w, src.TelemetrySnapshot())
	})
	return mux
}

// Serve starts an HTTP exporter for src on ln and returns the server, whose
// Addr is ln's bound address; the caller owns shutdown (srv.Close). The
// goroutine exits when the listener closes.
func Serve(ln net.Listener, src Source) *http.Server {
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(src)}
	go func() {
		// ErrServerClosed (and any listener error after Close) is the
		// normal exporter shutdown; there is no caller to report it to.
		_ = srv.Serve(ln)
	}()
	return srv
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dtt/internal/stats"
	"dtt/internal/telemetry"
)

// liveVars is the slice of the runtime's /debug/vars document the live view
// consumes (see internal/telemetry.WriteVars for the full schema).
type liveVars struct {
	DTT struct {
		Counters   map[string]int64                       `json:"counters"`
		Gauges     map[string]int64                       `json:"gauges"`
		Histograms map[string]telemetry.HistogramSnapshot `json:"histograms"`
	} `json:"dtt"`
}

// liveDispatchKey is the trigger-to-dispatch latency histogram's key in
// the vars document (dtt_trigger_dispatch_latency_ns with the exporter's
// prefix stripped). Present only when the runtime runs with Telemetry on.
const liveDispatchKey = "trigger_dispatch_latency_ns"

// normalizeLiveURL accepts the forms users paste — a bare host:port, a base
// URL, or the full /debug/vars endpoint — and returns the endpoint URL.
func normalizeLiveURL(u string) string {
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if !strings.HasSuffix(u, "/debug/vars") {
		u = strings.TrimRight(u, "/") + "/debug/vars"
	}
	return u
}

func pollLive(client *http.Client, url string) (liveVars, error) {
	var v liveVars
	resp, err := client.Get(url)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("%s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("%s: %v", url, err)
	}
	if v.DTT.Counters == nil {
		return v, fmt.Errorf("%s: no \"dtt\" payload — is this a DTT runtime's metrics endpoint?", url)
	}
	return v, nil
}

// runLive polls a running runtime's expvar endpoint and renders per-interval
// trigger rates plus dispatch-latency quantiles. Each row is one interval:
// the rate columns are deltas divided by the measured (not nominal) elapsed
// time, so a stalled scrape does not inflate the rates, and the p50/p99
// columns come from the interval's histogram-bucket deltas — the latency of
// THIS interval, not a since-boot average. Totals come from the last
// successful sample.
//
// A failed poll is transient until proven otherwise: the row renders as
// dashes and sampling continues against the previous baseline (the next
// good sample's rates span the gap, still divided by real elapsed time).
// Only when the run ends on a failure does runLive exit nonzero — after
// printing the table it accumulated, which is usually what identifies the
// moment the target died.
func runLive(stdout, stderr io.Writer, target string, interval time.Duration, samples int) int {
	url := normalizeLiveURL(target)
	client := &http.Client{Timeout: 10 * time.Second}
	tb := stats.NewTable(fmt.Sprintf("Live trigger rates from %s (interval %v)", url, interval),
		"sample", "tstores/s", "silent%", "fired/s", "squashed/s", "squash%", "executed/s", "p50(ns)", "p99(ns)", "depth")
	dashRow := func(i int) {
		tb.AddRow(i, "-", "-", "-", "-", "-", "-", "-", "-", "-")
	}

	var prev liveVars
	var prevAt time.Time
	havePrev := false
	var lastErr error
	if v, err := pollLive(client, url); err != nil {
		fmt.Fprintf(stderr, "dttprof: baseline: %v (will keep trying)\n", err)
		lastErr = err
	} else {
		prev, prevAt, havePrev = v, time.Now(), true
	}
	for i := 1; i <= samples; i++ {
		time.Sleep(interval)
		cur, err := pollLive(client, url)
		if err != nil {
			fmt.Fprintf(stderr, "dttprof: sample %d: %v\n", i, err)
			lastErr = err
			dashRow(i)
			continue
		}
		lastErr = nil
		now := time.Now()
		if !havePrev {
			// First successful scrape after a failed baseline: nothing to
			// delta against yet, so this row establishes the baseline.
			prev, prevAt, havePrev = cur, now, true
			dashRow(i)
			continue
		}
		secs := now.Sub(prevAt).Seconds()
		rate := func(key string) float64 {
			return float64(cur.DTT.Counters[key]-prev.DTT.Counters[key]) / secs
		}
		pct := func(part, whole float64) string {
			if whole == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*part/whole)
		}
		p50, p99 := "-", "-"
		if ch, ok := cur.DTT.Histograms[liveDispatchKey]; ok {
			d := ch.Sub(prev.DTT.Histograms[liveDispatchKey])
			if d.Count() > 0 {
				p50 = fmt.Sprintf("%.0f", d.Quantile(0.50))
				p99 = fmt.Sprintf("%.0f", d.Quantile(0.99))
			}
		}
		tstores, silent := rate("tstores"), rate("silent")
		fired, squashed := rate("fired"), rate("squashed")
		tb.AddRow(i,
			fmt.Sprintf("%.0f", tstores),
			pct(silent, tstores),
			fmt.Sprintf("%.0f", fired),
			fmt.Sprintf("%.0f", squashed),
			pct(squashed, fired),
			fmt.Sprintf("%.0f", rate("executed")),
			p50, p99,
			cur.DTT.Gauges["queue_len"])
		prev, prevAt = cur, now
	}
	fmt.Fprint(stdout, tb.String())
	if havePrev {
		c := prev.DTT.Counters
		fmt.Fprintf(stdout, "totals: tstores %d (silent %d), fired %d, squashed %d, executed %d\n",
			c["tstores"], c["silent"], c["fired"], c["squashed"], c["executed"])
		// A dttserve exporter carries the network plane's counters too; show
		// the serving totals when they are present.
		if _, ok := c["serve_frames_in"]; ok {
			fmt.Fprintf(stdout, "serve: sessions %d live / %d total, frames %d in / %d out, batches %d (%d stores), notifies %d (dropped %d), errors %d\n",
				prev.DTT.Gauges["serve_sessions"], c["serve_sessions"],
				c["serve_frames_in"], c["serve_frames_out"],
				c["serve_batches"], c["serve_stores"],
				c["serve_notifies"], c["serve_notify_dropped"], c["serve_errors"])
		}
	}
	if lastErr != nil {
		fmt.Fprintf(stderr, "dttprof: target unreachable at the end of the run: %v\n", lastErr)
		return 1
	}
	return 0
}

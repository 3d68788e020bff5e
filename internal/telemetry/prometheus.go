package telemetry

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders s in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single series, histograms with
// cumulative le buckets. The identities the runtime documents — Fired =
// Enqueued + Squashed + Overflowed among the counters — hold within every
// scrape because the snapshot was built consistently.
func WritePrometheus(w io.Writer, s Snapshot) {
	for _, m := range s.Counters {
		writeMeta(w, m.Name, m.Help, "counter")
		fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
	}
	for _, m := range s.Gauges {
		writeMeta(w, m.Name, m.Help, "gauge")
		fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
	}
	for _, h := range s.Histograms {
		writeMeta(w, h.Name, h.Help, "histogram")
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.Name, b, cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum)
		fmt.Fprintf(w, "%s_sum %d\n", h.Name, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", h.Name, cum)
	}
}

func writeMeta(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, promEscapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// promEscapeHelp escapes backslashes and newlines per the exposition
// format; metric help strings here are static ASCII, so this is a
// belt-and-braces guard rather than a hot path.
func promEscapeHelp(s string) string {
	for _, c := range s {
		if c == '\\' || c == '\n' {
			q := strconv.Quote(s)
			return q[1 : len(q)-1]
		}
	}
	return s
}

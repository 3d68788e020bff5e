// Package telemetry is the runtime's always-on observability plane: a
// zero-dependency metrics layer the dispatch plane updates with a few
// atomics on its hot paths, exported as Prometheus text and expvar JSON
// over HTTP.
//
// The package deliberately knows nothing about the runtime. The runtime
// owns a T — one block of histograms — and observes into it. Exporters
// consume a Snapshot the runtime builds (see the Source interface); counter
// consistency is the runtime's contract (core.Runtime.Stats reads its
// counters under the dispatch lock), histogram consistency is handled here
// by deriving each histogram's count from its bucket sums.
package telemetry

import "time"

// base anchors Now. Using a monotonic difference rather than wall-clock
// nanoseconds keeps latency arithmetic immune to clock steps.
var base = time.Now()

// Now returns monotonic nanoseconds since process start. It is the clock
// the runtime stamps queue entries with and never allocates.
func Now() int64 { return int64(time.Since(base)) }

// T is a runtime's telemetry, its histograms. The zero value is not usable;
// use New.
type T struct {
	// TriggerLatency is trigger->dispatch latency in nanoseconds: from the
	// triggering store's enqueue to the instance leaving the queue.
	TriggerLatency Histogram
	// RunDuration is support-body execution time in nanoseconds.
	RunDuration Histogram
	// QueueDepth is the thread queue's pending-entry count sampled at each
	// admission (after the write's entries were admitted).
	QueueDepth Histogram
	// BatchSize is the words-per-call histogram of TStoreBatch.
	BatchSize Histogram
	// MergeLatency is nanoseconds per update-plane merge (collect + apply
	// + dispatch), observed once per merge by the merging goroutine.
	MergeLatency Histogram
	// DeltaOccupancy is the distinct-dirty-word count each merge drained
	// from a privatized update plane.
	DeltaOccupancy Histogram
}

// New returns a T with every histogram initialised.
func New() *T {
	t := &T{}
	t.TriggerLatency.init(LatencyBounds)
	t.RunDuration.init(LatencyBounds)
	t.QueueDepth.init(DepthBounds)
	t.BatchSize.init(BatchBounds)
	t.MergeLatency.init(LatencyBounds)
	t.DeltaOccupancy.init(BatchBounds)
	return t
}

// Histograms returns the histograms in a fixed order — trigger latency,
// run duration, queue depth, batch size, merge latency and delta
// occupancy — with their exported metric names attached. New histograms
// append at the end; consumers index into the prefix.
func (t *T) Histograms() []HistogramSnapshot {
	return []HistogramSnapshot{
		t.TriggerLatency.Snapshot("dtt_trigger_dispatch_latency_ns",
			"Nanoseconds from a trigger entering the thread queue to its instance dispatching"),
		t.RunDuration.Snapshot("dtt_run_duration_ns",
			"Support-thread body execution time in nanoseconds"),
		t.QueueDepth.Snapshot("dtt_queue_depth",
			"Thread-queue occupancy sampled at enqueue"),
		t.BatchSize.Snapshot("dtt_tstore_batch_size",
			"Words written per TStoreBatch call"),
		t.MergeLatency.Snapshot("dtt_merge_latency_ns",
			"Nanoseconds per update-plane merge (collect, apply, dispatch)"),
		t.DeltaOccupancy.Snapshot("dtt_merge_delta_words",
			"Distinct dirty words drained per update-plane merge"),
	}
}

// Metric is one exported counter or gauge sample.
type Metric struct {
	// Name is the full Prometheus metric name (dtt_*).
	Name string
	// Help is the one-line metric description.
	Help string
	// Value is the sample value.
	Value int64
}

// Snapshot is one consistent export of a runtime's metrics; exporters
// render it as Prometheus text (WritePrometheus) or expvar JSON
// (WriteVars). Counters must be internally consistent — the runtime
// builds them from a torn-free Stats read — so every scrape satisfies the
// counter identities the runtime documents.
type Snapshot struct {
	// Counters are the runtime's global monotonic counters, in render
	// order.
	Counters []Metric
	// Gauges are point-in-time values (thread count, queue length, ...).
	Gauges []Metric
	// Histograms are the latency/duration/depth histograms.
	Histograms []HistogramSnapshot
}

// Source produces metric snapshots for an exporter. core.Runtime
// implements it.
type Source interface {
	TelemetrySnapshot() Snapshot
}

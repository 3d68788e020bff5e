package main

import (
	"math"
	"sort"
)

// metric describes one number the benchmark prints. The two tables below
// are the source of truth; BENCHMARK.json repeats name, unit, direction
// and bound, and bench_test.go keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names, for a per-layer metric, the end-to-end metric and the
	// workload it is expected to move (README, "How the layers interact").
	Moves string
	// Coarse marks a read of the program's bucketed telemetry histograms
	// (1/2.5/5 per decade): the value is interpolated inside one bucket.
	Coarse bool
}

// The contract wants every end-to-end metric from every workload, so
// these are the two that mean something on all five; the operation is per
// workload (kernels: an outer iteration; ingest: a store or an update
// operand; serve: a request). Both bounds are the contract's maximum
// because of the host, not the program: README, "Run shape".
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// The thirteen paper kernels; fine are the three whose
// bodies are too small to pay for a software trigger (F10).
var (
	fineKernels   = []string{"ammp", "equake", "mesa"}
	coarseKernels = []string{"art", "bzip2", "crafty", "gcc", "gzip", "mcf", "parser", "twolf", "vortex", "vpr"}
)

// perUnit is the unit of work counts: per pass, round or request, so that
// a count does not measure speed a second time through a time-bounded
// trial.
const perUnit = "1/unit"

var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		// workloads: the kernels' own code. The baseline is the control.
		{Name: "workloads.baseline_wall_s", Unit: "s", Better: "lower", Moves: "control: nothing in the runtime may move it"},
		{Name: "workloads.dtt_wall_s", Unit: "s", Better: "lower", Moves: "ops_per_s on kernels_*"},
		{Name: "workloads.speedup_x", Unit: "x", Better: "higher", Moves: "ops_per_s on kernels_*"},
		{Name: "workloads.body_busy_s", Unit: "s", Better: "lower", Moves: "ops_per_s on kernels_coarse"},
	}
	for _, k := range append(append([]string{}, fineKernels...), coarseKernels...) {
		ms = append(ms, metric{Name: "workloads.speedup_x." + k, Unit: "x", Better: "higher", Moves: "workloads.speedup_x"})
	}
	return append(ms, []metric{
		// core: admission, dispatch, Wait.
		{Name: "core.tstores", Unit: perUnit, Better: "lower", Moves: "ops_per_s on kernels_fine, ingest"},
		{Name: "core.silent_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s on kernels_*"},
		{Name: "core.fired", Unit: perUnit, Better: "lower", Moves: "ops_per_s on kernels_fine"},
		{Name: "core.squash_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s on ingest"},
		{Name: "core.overflow_ratio", Unit: "ratio", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.inline_runs", Unit: perUnit, Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.executed", Unit: perUnit, Better: "lower", Moves: "ops_per_s on kernels_fine"},
		{Name: "core.failed_runs", Unit: "count", Better: "lower", Moves: "failed operations on every workload"},
		{Name: "core.waits", Unit: perUnit, Better: "lower", Moves: "ops_per_s on kernels_fine"},
		{Name: "core.wall_per_fired_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on kernels_fine"},
		{Name: "core.tstore_ns_per_op", Unit: "ns", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.tstore_batch_ns_per_word", Unit: "ns", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.tupdate_batch_ns_per_word", Unit: "ns", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.merge_read_ns_per_word", Unit: "ns", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.wait_ns_per_round", Unit: "ns", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.round_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "core.round_p99_us", Unit: "us", Better: "lower", Moves: "core.round_p50_us on ingest, when rounds stall"},
		{Name: "core.request_direct_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_*"},
		{Name: "core.dispatch_p50_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on kernels_fine", Coarse: true},
		{Name: "core.dispatch_p99_ns", Unit: "ns", Better: "lower", Moves: "serve.request_p99_us on serve_notify", Coarse: true},
		// queue: the sharded thread queue under core.
		{Name: "queue.enqueued", Unit: perUnit, Better: "lower", Moves: "ops_per_s on kernels_fine"},
		{Name: "queue.dequeued", Unit: perUnit, Better: "lower", Moves: "ops_per_s on kernels_fine"},
		{Name: "queue.overflowed", Unit: perUnit, Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "queue.peak_depth", Unit: "count", Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "queue.shard_skew", Unit: "ratio", Better: "lower", Moves: "ops_per_s on ingest, kernels_fine"},
		// mem: the update plane, and the Go heap under everything.
		{Name: "mem.tupdates", Unit: perUnit, Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "mem.merges", Unit: perUnit, Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "mem.merged_words", Unit: perUnit, Better: "lower", Moves: "ops_per_s on ingest"},
		{Name: "mem.silent_merge_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s on ingest"},
		{Name: "mem.allocs_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s on every workload"},
		{Name: "mem.bytes_per_op", Unit: "B/op", Better: "lower", Moves: "ops_per_s on every workload"},
		{Name: "mem.heap_inuse_mb", Unit: "MB", Better: "lower", Moves: "ops_per_s on every workload"},
		{Name: "mem.gc_cycles", Unit: "count", Better: "lower", Moves: "serve.request_p50_us on serve_*, when requests stall"},
		// serve: frames, sockets, mailbox, client decode.
		{Name: "serve.request_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_*"},
		{Name: "serve.request_p99_us", Unit: "us", Better: "lower", Moves: "serve.request_p50_us on serve_*, when requests stall"},
		{Name: "serve.batch_rtt_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_*"},
		{Name: "serve.batch_rtt_p99_us", Unit: "us", Better: "lower", Moves: "serve.request_p99_us on serve_*"},
		{Name: "serve.wait_rtt_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_notify"},
		{Name: "serve.wait_rtt_p99_us", Unit: "us", Better: "lower", Moves: "serve.request_p99_us on serve_notify"},
		{Name: "serve.drain_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_notify"},
		{Name: "serve.null_rtt_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_rr"},
		{Name: "serve.notify_cost_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_notify"},
		{Name: "serve.frames_in_per_req", Unit: perUnit, Better: "lower", Moves: "ops_per_s on serve_*"},
		{Name: "serve.frames_out_per_req", Unit: perUnit, Better: "lower", Moves: "ops_per_s on serve_notify"},
		{Name: "serve.bytes_in_per_req", Unit: "B/op", Better: "lower", Moves: "ops_per_s on serve_*"},
		{Name: "serve.bytes_out_per_req", Unit: "B/op", Better: "lower", Moves: "ops_per_s on serve_notify"},
		{Name: "serve.notifies", Unit: perUnit, Better: "lower", Moves: "ops_per_s on serve_notify"},
		{Name: "serve.notify_dropped", Unit: "count", Better: "lower", Moves: "serve.recoveries"},
		{Name: "serve.gaps", Unit: "count", Better: "lower", Moves: "serve.recoveries"},
		{Name: "serve.recoveries", Unit: "count", Better: "lower", Moves: "serve.request_p99_us on serve_notify"},
		{Name: "serve.errors", Unit: "count", Better: "lower", Moves: "failed operations on serve_*"},
		{Name: "serve.notify_lat_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_notify", Coarse: true},
		{Name: "serve.dial_attach_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve_*"},
		// telemetry: what Config.Telemetry plus the bench's spans cost.
		{Name: "telemetry.overhead_pct.setup_s", Unit: "%", Better: "lower", Moves: "setup_s"},
		{Name: "telemetry.overhead_pct.ops_per_s", Unit: "%", Better: "lower", Moves: "ops_per_s"},
		// process: not a module, the whole program's CPU bill.
		{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "ops_per_s on every workload once both cores are busy"},
	}...)
}

// sorted returns a sorted copy of vs.
func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of vs (mean of the two middles for an even
// count) without disturbing vs; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the nearest-rank q-quantile of sorted samples in the
// samples' unit; 0 for none.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

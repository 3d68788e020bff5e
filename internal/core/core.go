// Package core implements the data-triggered threads runtime — the paper's
// primary contribution as a library.
//
// A program registers support threads (Register), attaches them to trigger
// ranges of memory regions (Attach), and writes trigger data through
// triggering stores (Region.TStore). A triggering store compares the new
// value against memory: if nothing changed it is silent and no work happens
// — this is where redundant computation is eliminated. If the value changed,
// an instance of each attached thread is enqueued in the thread queue,
// subject to duplicate squashing. The main thread consumes support-thread
// results after Wait (the paper's twait) or Barrier (tbarrier).
//
// There are two execution models, the paper's two: a support thread runs
// overlapped on a spare context, or it does not overlap at all.
//
//   - BackendImmediate runs support threads on a pool of goroutines,
//     modelling spare hardware contexts with real parallelism. This is the
//     software-DTT configuration and what examples use.
//   - BackendDeferred runs queued instances on the calling goroutine at
//     Wait/Barrier, in FIFO order: all redundancy elimination, no parallelism
//     — the ablation that separates the paper's two benefit channels.
//
// The single-goroutine model takes two attachments. A schedule —
// BackendSeeded, the same model with a seeded deterministic scheduler
// (internal/sched) choosing when and in what order instances dispatch —
// produces only interleavings legal under the paper's model and replays the
// same one from the same seed; it drives the protocol sanitizer through many
// schedules reproducibly. A Config.Recorder captures the task DAG that feeds
// the SMT timing simulator. The two compose: a recorded run can be seeded.
package core

import (
	"fmt"
	"runtime"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/trace"
)

// ThreadID identifies a registered support thread.
type ThreadID = queue.ThreadID

// Trigger describes why a support-thread instance is running.
type Trigger struct {
	// Thread is the running thread's ID.
	Thread ThreadID
	// Region and Index locate the word whose change fired the trigger.
	// Under duplicate squashing an instance may observe values newer than
	// the one that fired it; the paper's model makes the same guarantee
	// (the thread sees memory at execution time, not at trigger time).
	Region *Region
	Index  int
	// Addr is the logical address of the trigger word.
	Addr mem.Addr
}

// ThreadFunc is a support-thread body.
type ThreadFunc func(tg Trigger)

// Backend selects the execution model.
type Backend int

// Backends.
const (
	// BackendDeferred queues instances and runs them inline at
	// Wait/Barrier on the calling goroutine.
	BackendDeferred Backend = iota
	// BackendImmediate dispatches instances to a worker pool as soon as
	// they are enqueued.
	BackendImmediate
	// BackendSeeded is BackendDeferred under a schedule: queued instances
	// dispatch on the calling goroutine at seed-chosen preemption points and
	// in seed-chosen order. Given the same program and the same
	// Config.SchedSeed the interleaving is exactly reproducible.
	BackendSeeded
)

// String returns the backend name.
func (b Backend) String() string {
	switch b {
	case BackendDeferred:
		return "deferred"
	case BackendImmediate:
		return "immediate"
	case BackendSeeded:
		return "seeded"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Config configures a Runtime. The zero value selects the deferred backend
// with default hardware-structure sizes.
type Config struct {
	// Backend selects the execution model.
	Backend Backend
	// Workers is the number of support-thread contexts of BackendImmediate;
	// the single-goroutine backends ignore it. Defaults to 1.
	Workers int
	// QueueCapacity bounds the runtime's one thread queue; overflowing
	// triggers run inline in the storing context. Defaults to 64.
	QueueCapacity int
	// Recorder, when set, receives the run's task DAG: every support
	// instance becomes a trace task released by the store that triggered it.
	// It needs a single-goroutine backend (deferred or seeded). The runtime
	// attaches it to its address space as a probe; the caller must not.
	Recorder *trace.Recorder
	// Checker enables the DTT protocol sanitizer. Defaults to CheckOff.
	Checker CheckMode
	// SchedSeed seeds the schedule of BackendSeeded; the other backends
	// have none and ignore it. Any value is valid, including zero.
	// Re-running the same program with the same seed replays the same
	// support-thread interleaving.
	SchedSeed uint64
	// Telemetry enables the metrics plane: latency, run-duration and
	// queue-depth histograms, pprof labels on support-thread instances,
	// and runtime/trace annotations. Off by default; when off the trigger
	// fast paths pay one test and no time reads.
	Telemetry bool
	// MetricsAddr, when non-empty, starts an HTTP exporter on the address
	// serving /metrics (Prometheus text) and /debug/vars (expvar JSON).
	// Use "127.0.0.1:0" to bind an ephemeral port and read the bound
	// address back from Runtime.MetricsAddr. Implies Telemetry. The
	// exporter shuts down with Close.
	MetricsAddr string
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.MetricsAddr != "" {
		c.Telemetry = true
	}
}

// defaultParallelism is how many stripes an update plane splits its
// producers across: 1 on a single-goroutine backend, else the smallest power
// of two >= GOMAXPROCS, at most 64.
func defaultParallelism(immediate bool) int {
	if !immediate {
		return 1
	}
	return min(ceilPow2(runtime.GOMAXPROCS(0)), 64)
}

// ceilPow2 returns the smallest power of two >= n (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c *Config) validate() error {
	if c.Backend < BackendDeferred || c.Backend > BackendSeeded {
		return fmt.Errorf("core: unknown backend %v", c.Backend)
	}
	if c.Recorder != nil && c.Backend == BackendImmediate {
		return fmt.Errorf("core: a Recorder needs a single-goroutine backend, not %v", c.Backend)
	}
	return nil
}

package dtt_test

// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks of the hot structures. The experiment benches report the
// headline number of their table/figure as a custom metric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation; the
// workload benches measure real Go wall-clock for baseline vs DTT.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"dtt"
	"dtt/internal/harness"
	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/serve"
	"dtt/internal/sim"
	"dtt/internal/trace"
	"dtt/internal/workloads"
)

// benchExperiment runs one experiment per iteration and reports metric as
// a testing.B custom metric.
func benchExperiment(b *testing.B, id, metric string) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	opts := harness.Options{Size: workloads.Size{Scale: 1, Iters: 20, Seed: 1}}
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		v, ok := rep.Values[metric]
		if !ok {
			b.Fatalf("%s: metric %q missing from %v", id, metric, rep.Values)
		}
		last = v
	}
	b.ReportMetric(last, metric)
}

// Tables.
func BenchmarkT1_ISATable(b *testing.B)       { benchExperiment(b, "T1", "instructions") }
func BenchmarkT2_MachineTable(b *testing.B)   { benchExperiment(b, "T2", "contexts") }
func BenchmarkT3_BenchmarkTable(b *testing.B) { benchExperiment(b, "T3", "instances_mcf") }
func BenchmarkT4_TriggerAdvisor(b *testing.B) { benchExperiment(b, "T4", "top2_hits") }

// Figures.
func BenchmarkF1_RedundantLoads(b *testing.B)    { benchExperiment(b, "F1", "average") }
func BenchmarkF2_SilentStores(b *testing.B)      { benchExperiment(b, "F2", "average") }
func BenchmarkF3_Speedup(b *testing.B)           { benchExperiment(b, "F3", "mean") }
func BenchmarkF4_Decomposition(b *testing.B)     { benchExperiment(b, "F4", "full_mean") }
func BenchmarkF5_ContextSweep(b *testing.B)      { benchExperiment(b, "F5", "mean_ctx4") }
func BenchmarkF6_QueueSweep(b *testing.B)        { benchExperiment(b, "F6", "mean_cap64") }
func BenchmarkF7_InstrReduction(b *testing.B)    { benchExperiment(b, "F7", "average") }
func BenchmarkF8_Placement(b *testing.B)         { benchExperiment(b, "F8", "idle_mean") }
func BenchmarkF9_SilentTStores(b *testing.B)     { benchExperiment(b, "F9", "average") }
func BenchmarkF10_SoftwareSpeedup(b *testing.B)  { benchExperiment(b, "F10", "mean") }
func BenchmarkF11_EnergySavings(b *testing.B)    { benchExperiment(b, "F11", "average") }
func BenchmarkF12_MemLatencySweep(b *testing.B)  { benchExperiment(b, "F12", "mean_lat300") }
func BenchmarkF13_ScaleSweep(b *testing.B)       { benchExperiment(b, "F13", "speedup_mcf_s2") }
func BenchmarkF14_Characterisation(b *testing.B) { benchExperiment(b, "F14", "speedup_red90") }

// Per-workload wall-clock benches: the real Go cost of the baseline and
// DTT variants (deferred backend: redundancy elimination only).
func BenchmarkWorkloadBaseline(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			size := workloads.Size{Scale: 1, Iters: 20, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.RunBaseline(workloads.NewBaselineEnv(), size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWorkloadDTT(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			size := workloads.Size{Scale: 1, Iters: 20, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt, err := dtt.New(dtt.Config{Backend: dtt.BackendDeferred})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.RunDTT(workloads.NewDTTEnv(rt), size); err != nil {
					b.Fatal(err)
				}
				rt.Close()
			}
		})
	}
}

// Microbenches of the hot structures. The BenchmarkTStore* family measures
// the triggering-store fast paths the runtime promises are allocation-free:
// silent stores, changing (enqueuing) stores, squashed stores, and stores to
// addresses with no attachment. Run with -benchmem; allocs/op must be 0 on
// the silent, changing and squash paths (TestTStoreFastPathAllocs enforces
// this in plain `go test`).
func benchRuntime(b *testing.B, cfg dtt.Config) (*dtt.Runtime, *dtt.Region, dtt.ThreadID) {
	b.Helper()
	rt, err := dtt.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	r := rt.NewRegion("bench", 1024)
	id := rt.Register("noop", func(dtt.Trigger) {})
	if err := rt.Attach(id, r, 0, 1024); err != nil {
		b.Fatal(err)
	}
	return rt, r, id
}

func BenchmarkTStoreSilent(b *testing.B) {
	_, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred})
	r.TStore(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStore(0, 1) // always silent
	}
}

// BenchmarkTStoreChanging is the enqueue fast path: every store changes the
// value and enqueues an instance; the periodic Barrier drains the queue so
// its cost is amortised over the 1024 stores that filled it.
func BenchmarkTStoreChanging(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, QueueCapacity: 2048})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStore(i%1024, dtt.Word(i+1))
		if i%1024 == 1023 {
			rt.Barrier()
		}
	}
	b.StopTimer()
	rt.Barrier()
}

// busyWorker attaches a blocker thread to a region of its own on rt and
// triggers it, returning once the blocker's body holds the runtime's one
// worker; the body returns when release is called.
func busyWorker(tb testing.TB, rt *dtt.Runtime) (release func()) {
	tb.Helper()
	plug := rt.NewRegion("plug", 1)
	started, done := make(chan struct{}), make(chan struct{})
	id := rt.Register("blocker", func(dtt.Trigger) {
		close(started)
		<-done
	})
	if err := rt.Attach(id, plug, 0, 1); err != nil {
		tb.Fatal(err)
	}
	plug.TStore(0, 1)
	<-started
	return func() { close(done) }
}

// BenchmarkTStoreChangingBusy is BenchmarkTStoreChanging on the immediate
// backend while its one worker runs a body: every changing store finds no
// worker idle and stages its word, and every stageMax-th store flushes the
// stage into the queue in one admission (the first pass over the 1024 words
// enqueues, every later one squashes). ns/op is per changing store.
func BenchmarkTStoreChangingBusy(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendImmediate, Workers: 1, QueueCapacity: 2048})
	release := busyWorker(b, rt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStore(i%1024, dtt.Word(i+1))
	}
	b.StopTimer()
	release()
	rt.Barrier()
}

// BenchmarkTStoreSquash is the duplicate-squash fast path: one instance is
// pending at the address for the whole run, so every changing store squashes.
// BenchmarkTStoreBatchChanging is the acceptance benchmark for batched
// dispatch: 64 attached changing stores per op, issued either as 64 scalar
// TStore calls (scalar64) or as one 64-word TStoreBatch (batch64), against
// the same runtime shape as BenchmarkTStoreChanging. The queue drain (the
// periodic Barrier that executes the noop instances) runs outside the
// timer in BOTH variants — it costs the same either way and is not the
// store path under test — so batch64's ns/op versus scalar64's ns/op is a
// direct read of per-store dispatch throughput. The bar is batch64 at no
// more than half of scalar64 (>=2x per-store throughput) at 0 B/op
// 0 allocs/op. batch64x2 is batch64 against two threads attached in
// interleaved 16-word ranges: four candidates per batch, and four runs of
// one thread's words to admit.
func BenchmarkTStoreBatchChanging(b *testing.B) {
	const batch = 64
	run := func(b *testing.B, threads int, store func(r *dtt.Region, base int, vals []dtt.Word)) {
		rt, r, id := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, QueueCapacity: 2048})
		if threads == 2 {
			rt.Cancel(id)
			ids := [2]dtt.ThreadID{rt.Register("even", func(dtt.Trigger) {}), rt.Register("odd", func(dtt.Trigger) {})}
			for lo := 0; lo < 1024; lo += 16 {
				if err := rt.Attach(ids[lo/16%2], r, lo, lo+16); err != nil {
					b.Fatal(err)
				}
			}
		}
		var vals [batch]dtt.Word
		r.TStoreBatch(0, vals[:]) // warm the runtime's batch scratch
		rt.Barrier()
		var v dtt.Word
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v++
			for k := range vals {
				vals[k] = v
			}
			base := (i * batch) % 1024
			store(r, base, vals[:])
			if base == 1024-batch {
				b.StopTimer()
				rt.Barrier()
				b.StartTimer()
			}
		}
		b.StopTimer()
		rt.Barrier()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/store")
	}
	batchStore := func(r *dtt.Region, base int, vals []dtt.Word) { r.TStoreBatch(base, vals) }
	b.Run("scalar64", func(b *testing.B) {
		run(b, 1, func(r *dtt.Region, base int, vals []dtt.Word) {
			for k, v := range vals {
				r.TStore(base+k, v)
			}
		})
	})
	b.Run("batch64", func(b *testing.B) { run(b, 1, batchStore) })
	b.Run("batch64x2", func(b *testing.B) { run(b, 2, batchStore) })
	// The same 64 changing words through the update plane: a set-fold
	// and the merge a Load forces, which is TStoreBatch's effect by the
	// commutative path. DESIGN.md's "Batched triggering stores" compares
	// the two per word.
	b.Run("setmerge64", func(b *testing.B) {
		run(b, 1, func(r *dtt.Region, base int, vals []dtt.Word) {
			r.TUpdateBatch(base, dtt.UpdSet, vals)
			_ = r.Load(base)
		})
	})
}

// BenchmarkTStoreBatchSilent is the all-silent batch: one registry snapshot,
// no locks, no dispatch.
func BenchmarkTStoreBatchSilent(b *testing.B) {
	_, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred})
	const batch = 64
	var vals [batch]dtt.Word
	for k := range vals {
		vals[k] = 1
	}
	r.TStoreBatch(0, vals[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStoreBatch(0, vals[:]) // always silent
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/store")
}

// BenchmarkTStoreBatchSquash is the batch whose every word squashes into a
// pending entry: the queue is primed and never drained during timing.
func BenchmarkTStoreBatchSquash(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, QueueCapacity: 2048})
	const batch = 64
	var vals [batch]dtt.Word
	for k := range vals {
		vals[k] = 1_000_000
	}
	r.TStoreBatch(0, vals[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range vals {
			vals[k] = dtt.Word(2_000_000 + i + k)
		}
		r.TStoreBatch(0, vals[:])
	}
	b.StopTimer()
	rt.Barrier()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/store")
}

func BenchmarkTStoreSquash(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred})
	r.TStore(0, 1) // plant the pending entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStore(0, dtt.Word(i+2)) // always changes, always squashed
	}
	b.StopTimer()
	rt.Barrier()
}

// BenchmarkTStoreUncovered is a changing store to an address no thread is
// attached to: the store must be rejected before any dispatch work.
func BenchmarkTStoreUncovered(b *testing.B) {
	rt, _, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred})
	cold := rt.NewRegion("cold", 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold.TStore(0, dtt.Word(i+1)) // always changes, never covered
	}
}

// The BenchmarkTStoreTelemetry* family re-measures the same fast paths with
// the telemetry plane on (histograms, enqueue timestamps, pprof
// labels). `make bench-telemetry` runs both families side by side; the
// deltas are the whole cost of observability, and allocs/op must stay 0
// (TestTStoreFastPathAllocsTelemetry enforces that in plain `go test`).

func BenchmarkTStoreTelemetrySilent(b *testing.B) {
	_, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, Telemetry: true})
	r.TStore(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStore(0, 1) // always silent
	}
}

func BenchmarkTStoreTelemetryChanging(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, QueueCapacity: 2048, Telemetry: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStore(i%1024, dtt.Word(i+1))
		if i%1024 == 1023 {
			rt.Barrier()
		}
	}
	b.StopTimer()
	rt.Barrier()
}

func BenchmarkTStoreTelemetrySquash(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, Telemetry: true})
	r.TStore(0, 1) // plant the pending entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TStore(0, dtt.Word(i+2)) // always changes, always squashed
	}
	b.StopTimer()
	rt.Barrier()
}

func BenchmarkTStoreTelemetryUncovered(b *testing.B) {
	rt, _, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, Telemetry: true})
	cold := rt.NewRegion("cold", 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold.TStore(0, dtt.Word(i+1)) // always changes, never covered
	}
}

// The BenchmarkTStoreParallel* family measures aggregate triggering-store
// throughput with one producer goroutine per core (b.RunParallel). Each
// producer gets its own support thread and trigger range; every firing
// store meets the others on the one dispatch lock. `go test -bench
// TStoreParallel -cpu 1,2,4,8` sweeps the producer count.

// parallelBenchRuntime builds a runtime with one noop thread per potential
// producer, each attached to its own span-word slice of a shared region.
func parallelBenchRuntime(b *testing.B, cfg dtt.Config, producers, span int) (*dtt.Runtime, *dtt.Region) {
	b.Helper()
	rt, err := dtt.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	r := rt.NewRegion("bench", producers*span)
	for p := 0; p < producers; p++ {
		id := rt.Register("noop", func(dtt.Trigger) {})
		if err := rt.Attach(id, r, p*span, (p+1)*span); err != nil {
			b.Fatal(err)
		}
	}
	return rt, r
}

// BenchmarkTStoreParallelSilent: every producer repeatedly silent-stores its
// own word. Silent stores never touch the dispatch plane, so this is the
// memory-side scaling ceiling.
func BenchmarkTStoreParallelSilent(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	_, r := parallelBenchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred}, procs, 64)
	for p := 0; p < procs; p++ {
		r.TStore(p*64, 1)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := int(next.Add(1)-1) % procs
		for pb.Next() {
			r.TStore(p*64, 1) // always silent
		}
	})
}

// BenchmarkTStoreParallelChanging: every producer cycles changing stores
// over its own trigger range on the immediate backend, with a worker per
// producer draining the queue.
func BenchmarkTStoreParallelChanging(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	const span = 1024
	rt, r := parallelBenchRuntime(b, dtt.Config{
		Backend:       dtt.BackendImmediate,
		Workers:       procs,
		QueueCapacity: 2048,
	}, procs, span)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := int(next.Add(1)-1) % procs
		base := p * span
		i := 0
		for pb.Next() {
			r.TStore(base+i%span, dtt.Word(i+1))
			i++
		}
	})
	b.StopTimer()
	rt.Barrier()
}

// BenchmarkTStoreParallelSquash: each producer keeps one pending entry
// planted at its word and hammers changing stores into it, so every store
// is a duplicate squash under the dispatch lock.
func BenchmarkTStoreParallelSquash(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	rt, r := parallelBenchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred}, procs, 64)
	for p := 0; p < procs; p++ {
		r.TStore(p*64, 1) // plant the pending entry
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := int(next.Add(1)-1) % procs
		i := uint64(1)
		for pb.Next() {
			r.TStore(p*64, dtt.Word(i+1)) // always changes, always squashed
			i++
		}
	})
	b.StopTimer()
	rt.Barrier()
}

// BenchmarkTStoreParallelUncovered: changing stores to words no thread is
// attached to, one word per producer; the lock-free registry probe is the
// only shared state.
func BenchmarkTStoreParallelUncovered(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	rt, _ := parallelBenchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred}, procs, 64)
	cold := rt.NewRegion("cold", procs*8)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := int(next.Add(1)-1) % procs
		i := 0
		for pb.Next() {
			cold.TStore(p*8, dtt.Word(i+1)) // always changes, never covered
			i++
		}
	})
}

// BenchmarkQueuePending measures the Wait/Barrier wakeup predicate: whether
// thread t has a pending entry, asked with the queue full of other threads'
// entries. The ring-buffer queue answers from a per-thread counter in O(1).
func BenchmarkQueuePending(b *testing.B) {
	q := queue.NewThreadQueue(4096)
	pend := queue.NewPendingSet(0, 4096*mem.WordBytes)
	addrs := make([]mem.Addr, 4096)
	for i := range addrs {
		addrs[i] = mem.Addr(i) * mem.WordBytes
	}
	q.EnqueueRun(queue.ThreadID(1), addrs, &pend)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Pending(queue.ThreadID(2)) {
			b.Fatal("thread 2 never enqueued")
		}
	}
}

// computeSink keeps the multiply-accumulate of benchCompute live.
var computeSink float64

// benchCompute prices System.Compute where the kernels call it: once per
// multiply-accumulate of an inner loop. ns/op minus the bare loop's (a
// fraction of a nanosecond) is what the probe seam charges an arithmetic op.
func benchCompute(b *testing.B, sys *mem.System) {
	acc, w := 0.0, 1.0000001
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += w * float64(i&7)
		sys.Compute(1)
	}
	computeSink = acc
}

// BenchmarkComputeUnprobed: no probe attached, so Compute is a flag test
// inlined into the loop (cmd/escapegate pins the inlining).
func BenchmarkComputeUnprobed(b *testing.B) { benchCompute(b, mem.NewSystem()) }

// BenchmarkComputeProbed: one NopProbe attached — the outlined fan-out and
// one interface call, what every simulated experiment pays per Compute.
func BenchmarkComputeProbed(b *testing.B) {
	sys := mem.NewSystem()
	sys.AttachProbe(mem.NopProbe{})
	benchCompute(b, sys)
}

// BenchmarkBufferStoreChanging prices one changing, unprobed store — the
// outlined Buffer.swap — in each sharing class: a locked XCHG on a shared
// buffer (trigger data), a plain load and store on a private one (a kernel's
// outputs). The difference is what a body saves per changed output word.
func BenchmarkBufferStoreChanging(b *testing.B) {
	sys := mem.NewSystem()
	for _, bc := range []struct {
		name string
		buf  *mem.Buffer
	}{
		{"shared", sys.AllocShared("shared", 1024)},
		{"private", sys.Alloc("private", 1024)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.buf.Store(i&1023, mem.Word(i)+1)
			}
		})
	}
}

func BenchmarkCacheHierarchy(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(mem.Addr(i%100000)*8, i%4 == 0)
	}
}

func BenchmarkSimulatorEngine(b *testing.B) {
	// A representative DAG: 64 main segments, each releasing 4 supports.
	var tasks []*trace.Task
	id := func() trace.TaskID { return trace.TaskID(len(tasks)) }
	prevMain := trace.NoTask
	for seg := 0; seg < 64; seg++ {
		var deps []trace.TaskID
		if prevMain != trace.NoTask {
			deps = append(deps, prevMain)
		}
		m := &trace.Task{ID: id(), Kind: trace.KindMain, Ops: 500, Deps: deps}
		tasks = append(tasks, m)
		var sups []trace.TaskID
		for s := 0; s < 4; s++ {
			st := &trace.Task{ID: id(), Kind: trace.KindSupport, Ops: 300, Deps: []trace.TaskID{m.ID}}
			tasks = append(tasks, st)
			sups = append(sups, st.ID)
		}
		j := &trace.Task{ID: id(), Kind: trace.KindMain, Ops: 10, Deps: append(sups, m.ID)}
		tasks = append(tasks, j)
		prevMain = j.ID
	}
	tr := &trace.Trace{Tasks: tasks}
	for _, t := range tasks {
		if t.Kind == trace.KindMain {
			tr.Main = append(tr.Main, t.ID)
		}
	}
	cfg := sim.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The BenchmarkTUpdate* family measures the commutative-update plane.
// The producer-side benches time the privatized fold alone; the cycle
// bench times fold + merge + dispatch; the contended A/B is the
// acceptance benchmark for the tentpole.

// BenchmarkTUpdateFold is the producer fast path: one stripe-local lock
// and a cell write per op, nothing shared, nothing dispatched.
func BenchmarkTUpdateFold(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred})
	r.TUpdate(0, dtt.UpdAdd, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TUpdate(0, dtt.UpdAdd, 1)
	}
	b.StopTimer()
	rt.Barrier()
}

// BenchmarkTUpdateBatchFold folds 64 words per op under one stripe lock.
func BenchmarkTUpdateBatchFold(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred})
	const batch = 64
	var vals [batch]dtt.Word
	for k := range vals {
		vals[k] = 1
	}
	r.TUpdateBatch(0, dtt.UpdAdd, vals[:])
	rt.Barrier()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TUpdateBatch(0, dtt.UpdAdd, vals[:])
	}
	b.StopTimer()
	rt.Barrier()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/store")
}

// BenchmarkTUpdateMergeCycle is the full pipeline: fold a 64-word span,
// then merge, fire and drain at the Barrier — the update-plane analogue
// of BenchmarkTStoreBatchChanging with the drain inside the timer.
func BenchmarkTUpdateMergeCycle(b *testing.B) {
	rt, r, _ := benchRuntime(b, dtt.Config{Backend: dtt.BackendDeferred, QueueCapacity: 2048})
	const batch = 64
	var vals [batch]dtt.Word
	for k := range vals {
		vals[k] = 1
	}
	r.TUpdateBatch(0, dtt.UpdAdd, vals[:])
	rt.Barrier()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TUpdateBatch(0, dtt.UpdAdd, vals[:])
		rt.Barrier()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/store")
}

// BenchmarkTStoreOverflow prices a trigger that finds the thread queue full
// and runs inline on the writer. QueueCapacity is 1, and a plug thread's
// entry fills it for the whole run (on the immediate backend the one worker
// sits inside the plug's previous instance, so nothing drains it), so every
// changing write to the measured thread's 64 words overflows: batch64 is one
// 64-word TStoreBatch per op, scalar one TStore. The body is empty.
// ns/overflowed is the elapsed time over the overflowed triggers counted.
func BenchmarkTStoreOverflow(b *testing.B) {
	const words = 64
	run := func(b *testing.B, backend dtt.Backend, store func(r *dtt.Region, i int, vals []dtt.Word)) {
		rt, err := dtt.New(dtt.Config{Backend: backend, Workers: 1, QueueCapacity: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(rt.Close)
		// entered holds one send per plug instance, and at most two run.
		entered, release := make(chan struct{}, 2), make(chan struct{})
		b.Cleanup(func() { close(release) }) // before Close: the worker leaves the plug
		plug := rt.Register("plug", func(dtt.Trigger) { entered <- struct{}{}; <-release })
		p := rt.NewRegion("plug", 1)
		if err := rt.Attach(plug, p, 0, 1); err != nil {
			b.Fatal(err)
		}
		if backend == dtt.BackendImmediate {
			p.TStore(0, 1) // the worker claims it and stays in the body
			<-entered
		}
		p.TStore(0, 2) // fills the queue
		r := rt.NewRegion("bench", words)
		id := rt.Register("noop", func(dtt.Trigger) {})
		if err := rt.Attach(id, r, 0, words); err != nil {
			b.Fatal(err)
		}
		var vals [words]dtt.Word
		store(r, 0, vals[:]) // warm the batch scratch
		before := rt.Stats().Overflowed
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range vals {
				vals[k] = dtt.Word(i + 1)
			}
			store(r, i, vals[:])
		}
		b.StopTimer()
		overflowed := rt.Stats().Overflowed - before
		if overflowed < int64(b.N) {
			b.Fatalf("%d of %d ops overflowed", overflowed, b.N)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(overflowed), "ns/overflowed")
	}
	batch := func(r *dtt.Region, _ int, vals []dtt.Word) { r.TStoreBatch(0, vals) }
	scalar := func(r *dtt.Region, i int, vals []dtt.Word) { r.TStore(i%words, vals[0]) }
	b.Run("batch64/immediate", func(b *testing.B) { run(b, dtt.BackendImmediate, batch) })
	b.Run("batch64/deferred", func(b *testing.B) { run(b, dtt.BackendDeferred, batch) })
	b.Run("scalar/immediate", func(b *testing.B) { run(b, dtt.BackendImmediate, scalar) })
}

// dispatchBench builds the dispatch-side benchmarks' runtime: the immediate
// backend with one worker beside the producer (the bench/ workloads' shape),
// an empty body, and a queue that holds a whole round, so every changing
// word is one admitted, claimed and settled entry.
func dispatchBench(b *testing.B, words int) (*dtt.Runtime, *dtt.Region, dtt.ThreadID) {
	b.Helper()
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 1, QueueCapacity: 2 * words})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	r := rt.NewRegion("bench", words)
	id := rt.Register("noop", func(dtt.Trigger) {})
	if err := rt.Attach(id, r, 0, words); err != nil {
		b.Fatal(err)
	}
	return rt, r, id
}

// BenchmarkDispatchDrain prices the per-entry dispatch bracket without
// bench/: one TStoreBatch of 4096 changing words and the Wait that drains
// it. ns/entry is admission plus the worker's claim, run and settle per
// dispatched entry, with an empty body.
func BenchmarkDispatchDrain(b *testing.B) {
	const words = 4096
	rt, r, id := dispatchBench(b, words)
	vals := make([]dtt.Word, words)
	round := func(v dtt.Word) {
		for i := range vals {
			vals[i] = v
		}
		r.TStoreBatch(0, vals)
		rt.Wait(id)
	}
	round(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(dtt.Word(i + 2))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/words, "ns/entry")
}

// BenchmarkMergeDispatch is the same bracket fed by the update plane: 4096
// folded words, every one changing, merged and admitted at the Wait.
// ns/word is the merge's fold, store, match and admission plus the drain.
func BenchmarkMergeDispatch(b *testing.B) {
	const words = 4096
	rt, r, id := dispatchBench(b, words)
	upds := make([]dtt.Word, words)
	for i := range upds {
		upds[i] = 1
	}
	round := func() {
		r.TUpdateBatch(0, dtt.UpdAdd, upds)
		rt.Wait(id)
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/words, "ns/word")
}

// BenchmarkTUpdateHotContended is the tentpole's acceptance benchmark:
// 8 producer goroutines hammer the SAME 64-word hot window — the
// shape that serializes scalar triggering stores on the target words and
// the dispatch lock. The tstorebatch variant issues always-changing
// TStoreBatch calls (each word compare-and-swaps the shared line and
// takes the dispatch path); the tupdatebatch variant folds the same
// traffic into per-stripe privatized deltas and reads a word back every
// 8 batches (512 ops) — Load is a try-lock merge point — so merges and the
// triggers they fire stay inside the timed region. The bar is
// tupdatebatch at <= 1/4 of tstorebatch's ns/store (>= 4x per-store
// throughput at 8 contended producers).
func BenchmarkTUpdateHotContended(b *testing.B) {
	const (
		producers = 8
		batch     = 64
	)
	run := func(b *testing.B, cfg dtt.Config, store func(r *dtt.Region, vals []dtt.Word, v dtt.Word)) {
		rt, err := dtt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(rt.Close)
		r := rt.NewRegion("hot", batch)
		id := rt.Register("noop", func(dtt.Trigger) {})
		if err := rt.Attach(id, r, 0, batch); err != nil {
			b.Fatal(err)
		}
		// Warm both planes: scratch pools, stripe cells, pending entry.
		var warm [batch]dtt.Word
		for k := range warm {
			warm[k] = 1
		}
		store(r, warm[:], 1)
		rt.Barrier()
		gomax := runtime.GOMAXPROCS(0)
		b.SetParallelism((producers + gomax - 1) / gomax)
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			p := next.Add(1)
			var vals [batch]dtt.Word
			v := dtt.Word(p) << 32 // distinct per producer: stores keep changing
			for pb.Next() {
				v++
				store(r, vals[:], v)
			}
		})
		b.StopTimer()
		rt.Barrier()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/store")
	}
	b.Run("tstorebatch", func(b *testing.B) {
		run(b, dtt.Config{Backend: dtt.BackendImmediate, Workers: 2, QueueCapacity: 2048},
			func(r *dtt.Region, vals []dtt.Word, v dtt.Word) {
				for k := range vals {
					vals[k] = v + dtt.Word(k)
				}
				r.TStoreBatch(0, vals)
			})
	})
	b.Run("tupdatebatch", func(b *testing.B) {
		run(b, dtt.Config{Backend: dtt.BackendImmediate, Workers: 2, QueueCapacity: 2048},
			func(r *dtt.Region, vals []dtt.Word, v dtt.Word) {
				for k := range vals {
					vals[k] = v + dtt.Word(k)
				}
				r.TUpdateBatch(0, dtt.UpdAdd, vals)
				if v&7 == 0 { // v's low bits count this producer's batches
					r.Load(0)
				}
			})
	})
}

// BenchmarkServeBatch is the loopback cost of the network trigger plane:
// one client session round-trips a 64-word TSTORE_BATCH per op through a
// real TCP socket into the same dispatch path the local benches measure,
// so ns/store here minus BenchmarkTStoreBatchChanging's ns/store is the
// framing + syscall bill. Notifies stay unsubscribed — this measures the
// request/reply spine, not the streaming plane.
func BenchmarkServeBatch(b *testing.B) {
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 2, QueueCapacity: 2048})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	srv := serve.NewServer(rt, serve.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cs, err := serve.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cs.Close() })
	const batch = 64
	h, err := cs.Attach("bench", 1024, 0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]mem.Word, batch)
	var v mem.Word
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v++
		for k := range vals {
			vals[k] = v
		}
		if _, err := cs.Batch(h, (i*batch)%1024, vals); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := cs.Wait(h); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/store")
}

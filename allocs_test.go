package dtt_test

// Allocation regression tests for the triggering-store fast paths. These run
// in plain `go test`, so an allocs/op regression fails CI loudly rather than
// only showing up in benchmark output someone has to read.

import (
	"testing"

	"dtt"
	"dtt/internal/serve"
)

// allocRuntime builds the same shape as the BenchmarkTStore* family: one
// attached 1024-word region, one unattached region, deferred backend.
func allocRuntime(t *testing.T, telemetry bool) (*dtt.Runtime, *dtt.Region, *dtt.Region) {
	t.Helper()
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendDeferred, QueueCapacity: 2048, Telemetry: telemetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	hot := rt.NewRegion("hot", 1024)
	cold := rt.NewRegion("cold", 64)
	id := rt.Register("noop", func(dtt.Trigger) {})
	if err := rt.Attach(id, hot, 0, 1024); err != nil {
		t.Fatal(err)
	}
	// Warm the runtime's internal structures (queue per-thread counters,
	// lookup scratch, dedup map buckets) so the measurements
	// below see the steady state the fast-path contract is about.
	for i := 0; i < 1024; i++ {
		hot.TStore(i, 1)
	}
	rt.Barrier()
	return rt, hot, cold
}

// assertFastPathAllocs measures the four fast paths, and a changing store
// that fires three threads, against the runtime label (telemetry off/on):
// both configurations promise 0 allocs/op.
func assertFastPathAllocs(t *testing.T, label string, telemetry bool) {
	rt, hot, cold := allocRuntime(t, telemetry)

	// Silent store: value unchanged, thread squashed before dispatch.
	if got := testing.AllocsPerRun(200, func() { hot.TStore(0, 1) }); got != 0 {
		t.Errorf("%s: silent tstore allocates %.1f allocs/op, want 0", label, got)
	}

	// Changing store: full fire -> lookup -> enqueue -> drain path.
	var v dtt.Word = 1
	if got := testing.AllocsPerRun(20, func() {
		v++
		for i := 0; i < 1024; i++ {
			hot.TStore(i, v)
		}
		rt.Barrier()
	}); got != 0 {
		t.Errorf("%s: changing tstore+drain allocates %.1f allocs/op, want 0", label, got)
	}

	// Squash path: a pending entry for the same address already queued.
	hot.TStore(0, 1_000_000)
	var w dtt.Word
	if got := testing.AllocsPerRun(200, func() {
		w++
		hot.TStore(0, 2_000_000+w)
	}); got != 0 {
		t.Errorf("%s: squashing tstore allocates %.1f allocs/op, want 0", label, got)
	}
	rt.Barrier()

	// Uncovered store: changing value, but no attachment covers the address,
	// so the registry pre-check must reject it without touching rt.mu.
	var u dtt.Word
	if got := testing.AllocsPerRun(200, func() {
		u++
		cold.TStore(0, u)
	}); got != 0 {
		t.Errorf("%s: uncovered tstore allocates %.1f allocs/op, want 0", label, got)
	}

	// Changing store to a word three threads' overlapping ranges cover: one
	// hold of the dispatch lock admits all three pairs, and the drain runs
	// three bodies, still without allocating.
	tri := rt.NewRegion("tri", 8)
	for k, name := range []string{"tri0", "tri1", "tri2"} {
		if err := rt.Attach(rt.Register(name, func(dtt.Trigger) {}), tri, k, 8-k); err != nil {
			t.Fatal(err)
		}
	}
	tri.TStore(3, 1)
	rt.Barrier()
	var x dtt.Word = 1
	if got := testing.AllocsPerRun(200, func() {
		x++
		tri.TStore(3, x)
		rt.Barrier()
	}); got != 0 {
		t.Errorf("%s: tstore covered by three threads+drain allocates %.1f allocs/op, want 0", label, got)
	}
}

// assertBatchFastPathAllocs holds TStoreBatch to the same
// 0 allocs/op contract on every outcome: all-silent batches, all-changing
// batches (with drain), and batches whose every word squashes into a
// pending entry. The grouping scratch comes from the runtime's pool, so
// after one warm batch the steady state allocates nothing.
func assertBatchFastPathAllocs(t *testing.T, label string, telemetry bool) {
	rt, hot, cold := allocRuntime(t, telemetry)

	const batch = 64
	var vals [batch]dtt.Word

	// Warm the batch scratch (pool, fired slice capacity).
	for i := range vals {
		vals[i] = 1
	}
	hot.TStoreBatch(0, vals[:])
	rt.Barrier()

	// All-silent batch: every word already holds its value.
	if got := testing.AllocsPerRun(200, func() { hot.TStoreBatch(0, vals[:]) }); got != 0 {
		t.Errorf("%s: silent batch allocates %.1f allocs/op, want 0", label, got)
	}

	// All-changing batch: fire -> group -> enqueue -> drain.
	var v dtt.Word = 1
	if got := testing.AllocsPerRun(20, func() {
		v++
		for i := range vals {
			vals[i] = v
		}
		for lo := 0; lo < 1024; lo += batch {
			hot.TStoreBatch(lo, vals[:])
		}
		rt.Barrier()
	}); got != 0 {
		t.Errorf("%s: changing batch+drain allocates %.1f allocs/op, want 0", label, got)
	}

	// Squash path: pending entries already queued for every batch address.
	for i := range vals {
		vals[i] = 1_000_000
	}
	hot.TStoreBatch(0, vals[:])
	var w dtt.Word
	if got := testing.AllocsPerRun(200, func() {
		w++
		for i := range vals {
			vals[i] = 2_000_000 + w
		}
		hot.TStoreBatch(0, vals[:])
	}); got != 0 {
		t.Errorf("%s: squashing batch allocates %.1f allocs/op, want 0", label, got)
	}
	rt.Barrier()

	// Uncovered batch: changing values, no attachments.
	var u dtt.Word
	if got := testing.AllocsPerRun(200, func() {
		u++
		vals[0] = u
		cold.TStoreBatch(0, vals[:8])
	}); got != 0 {
		t.Errorf("%s: uncovered batch allocates %.1f allocs/op, want 0", label, got)
	}
}

func TestTStoreFastPathAllocs(t *testing.T) {
	assertFastPathAllocs(t, "telemetry off", false)

	// Changing stores on the immediate backend while its one worker runs a
	// body: each stages its word, and the stage's flushes admit them.
	t.Run("immediate busy worker", func(t *testing.T) {
		rt, err := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 1, QueueCapacity: 2048})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		hot := rt.NewRegion("hot", 1024)
		if err := rt.Attach(rt.Register("noop", func(dtt.Trigger) {}), hot, 0, 1024); err != nil {
			t.Fatal(err)
		}
		release := busyWorker(t, rt)
		var v dtt.Word = 1
		store := func() {
			v++
			for i := 0; i < 1024; i++ {
				hot.TStore(i, v)
			}
		}
		store() // the first pass enqueues; the measured ones squash
		if got := testing.AllocsPerRun(20, store); got != 0 {
			t.Errorf("staged changing tstore allocates %.1f allocs/op (1024 stores), want 0", got)
		}
		release()
		rt.Barrier()
		if st := rt.Stats(); st.Enqueued != 1024+1 || st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
			t.Fatalf("the busy-worker stores must enqueue each word once and squash the rest: %+v", st)
		}
	})
}

// TestTStoreBatchFastPathAllocs gates the batched paths the same way the
// scalar gates above do; make ci's allocs gate runs both.
func TestTStoreBatchFastPathAllocs(t *testing.T) {
	assertBatchFastPathAllocs(t, "telemetry off", false)
}

func TestTStoreBatchFastPathAllocsTelemetry(t *testing.T) {
	assertBatchFastPathAllocs(t, "telemetry on", true)
}

// TestTStoreFastPathAllocsTelemetry holds the telemetry plane to the same
// standard: histogram observes are atomic adds into preallocated buckets,
// the enqueue clock is a monotonic read, and pprof label contexts are
// precomputed at Register — so turning telemetry on must not add a single
// allocation to any triggering-store path.
func TestTStoreFastPathAllocsTelemetry(t *testing.T) {
	assertFastPathAllocs(t, "telemetry on", true)
}

// assertUpdateFastPathAllocs holds the commutative-update plane to the
// same 0 allocs/op contract: producer-side folds (scalar and batch) after
// the stripe cells are lazily sized, and whole fold→merge→drain cycles —
// the merge scratch and inline list are plane- and pool-owned.
func assertUpdateFastPathAllocs(t *testing.T, label string, telemetry bool) {
	rt, hot, cold := allocRuntime(t, telemetry)

	const batch = 64
	var vals [batch]dtt.Word
	for i := range vals {
		vals[i] = 1
	}
	// Warm the update plane: first folds size the stripe cells and the
	// merge scratch; a Barrier warms the merge path and inline pool.
	hot.TUpdate(0, dtt.UpdAdd, 1)
	hot.TUpdateBatch(0, dtt.UpdAdd, vals[:])
	cold.TUpdate(0, dtt.UpdAdd, 1)
	rt.Barrier()

	// Producer-side fold: stripe lock + cell write, nothing shared.
	if got := testing.AllocsPerRun(200, func() { hot.TUpdate(0, dtt.UpdAdd, 1) }); got != 0 {
		t.Errorf("%s: scalar fold allocates %.1f allocs/op, want 0", label, got)
	}
	rt.Barrier()

	// Batched fold over a span.
	if got := testing.AllocsPerRun(200, func() { hot.TUpdateBatch(0, dtt.UpdAdd, vals[:]) }); got != 0 {
		t.Errorf("%s: batched fold allocates %.1f allocs/op, want 0", label, got)
	}
	rt.Barrier()

	// Full cycle: fold, merge at the sync point, fire and drain.
	if got := testing.AllocsPerRun(20, func() {
		for lo := 0; lo < 1024; lo += batch {
			hot.TUpdateBatch(lo, dtt.UpdAdd, vals[:])
		}
		rt.Barrier()
	}); got != 0 {
		t.Errorf("%s: fold+merge+drain cycle allocates %.1f allocs/op, want 0", label, got)
	}

	// Uncovered fold+merge: merge stores that fire no one.
	if got := testing.AllocsPerRun(200, func() {
		cold.TUpdate(0, dtt.UpdAdd, 1)
		rt.Barrier()
	}); got != 0 {
		t.Errorf("%s: uncovered fold+merge allocates %.1f allocs/op, want 0", label, got)
	}
}

func TestTUpdateFastPathAllocs(t *testing.T) {
	assertUpdateFastPathAllocs(t, "telemetry off", false)
}

func TestTUpdateFastPathAllocsTelemetry(t *testing.T) {
	assertUpdateFastPathAllocs(t, "telemetry on", true)
}

// TestDispatchDrainAllocs holds the dispatch side to the contract: on the
// immediate backend a 4096-word changing TStoreBatch and the Wait that
// drains it — the worker's claims, the run-of-n bracket, the settle — and
// likewise a 3072-word merge admitted through the same dispatch phase,
// allocate nothing — not even when the Wait has to sleep, because its wake
// channel is a recycled one from the dispatch plane's free list.
func TestDispatchDrainAllocs(t *testing.T) {
	const words = 4096
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 1, QueueCapacity: 2 * words})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	keys := rt.NewRegion("keys", words)
	ctrs := rt.NewRegion("ctrs", words)
	id := rt.Register("noop", func(dtt.Trigger) {})
	if err := rt.Attach(id, keys, 0, words); err != nil {
		t.Fatal(err)
	}
	if err := rt.Attach(id, ctrs, 0, words); err != nil {
		t.Fatal(err)
	}
	vals := make([]dtt.Word, words)
	upds := make([]dtt.Word, words)
	for i := range upds {
		if i%4 != 0 { // a quarter of the merged words are silent merges
			upds[i] = 1
		}
	}
	var v dtt.Word
	batch := func() {
		v++
		for i := range vals {
			vals[i] = v
		}
		keys.TStoreBatch(0, vals)
		rt.Wait(id)
	}
	merge := func() {
		ctrs.TUpdateBatch(0, dtt.UpdAdd, upds)
		rt.Wait(id) // the merge point: 3072 changing words, one admission walk
	}
	for i := 0; i < 4; i++ { // warm the scratch, the delta plane, the waiter slice and its channel
		batch()
		merge()
	}
	if got := testing.AllocsPerRun(50, batch); got != 0 {
		t.Errorf("TStoreBatch(%d changing)+Wait allocates %.0f allocs/op, want 0", words, got)
	}
	if got := testing.AllocsPerRun(50, merge); got != 0 {
		t.Errorf("merge of %d changing words+Wait allocates %.0f allocs/op, want 0", words*3/4, got)
	}
	if st := rt.Stats(); st.Overflowed != 0 || st.FailedRuns != 0 {
		t.Fatalf("the gate's workload must stay on the queued path: %+v", st)
	}
}

// TestTStoreOverflowAllocs holds the overflow path to the contract, in
// BenchmarkTStoreOverflow's shape: the immediate backend at QueueCapacity 1,
// its one worker held inside a plug thread's body and the plug's next entry
// filling the queue, so every changing write to the measured thread's 64
// words overflows and runs inline on the writer. A scalar TStore and a
// 64-word TStoreBatch must each allocate nothing per op, the inline run and
// its settle included.
func TestTStoreOverflowAllocs(t *testing.T) {
	const words = 64
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 1, QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	entered, release := make(chan struct{}, 2), make(chan struct{})
	t.Cleanup(func() { close(release) }) // before Close: the worker leaves the plug
	plug := rt.Register("plug", func(dtt.Trigger) { entered <- struct{}{}; <-release })
	p := rt.NewRegion("plug", 1)
	if err := rt.Attach(plug, p, 0, 1); err != nil {
		t.Fatal(err)
	}
	p.TStore(0, 1) // the worker claims it and stays in the body
	<-entered
	p.TStore(0, 2) // fills the queue
	r := rt.NewRegion("hot", words)
	id := rt.Register("noop", func(dtt.Trigger) {})
	if err := rt.Attach(id, r, 0, words); err != nil {
		t.Fatal(err)
	}
	vals := make([]dtt.Word, words)
	var v dtt.Word
	scalar := func() {
		v++
		r.TStore(int(v)%words, v)
	}
	batch := func() {
		v++
		for i := range vals {
			vals[i] = v
		}
		r.TStoreBatch(0, vals)
	}
	batch() // warm the batch scratch
	for _, tc := range []struct {
		name  string
		op    func()
		words int64
	}{{"scalar TStore", scalar, 1}, {"TStoreBatch(64)", batch, words}} {
		before := rt.Stats().Overflowed
		const runs = 200
		if got := testing.AllocsPerRun(runs, tc.op); got != 0 {
			t.Errorf("overflowing %s allocates %.0f allocs/op, want 0", tc.name, got)
		}
		// AllocsPerRun calls op once more to warm up.
		if n := rt.Stats().Overflowed - before; n != (runs+1)*tc.words {
			t.Fatalf("%s: %d triggers overflowed, want %d: the gate must measure the overflow path", tc.name, n, (runs+1)*tc.words)
		}
	}
}

// TestServeNotifyFastPathAllocs holds the serve plane's subscribed request
// to the same contract over a real loopback socket, client and server
// together (AllocsPerRun counts the whole process): a 16-word Batch, the
// Wait that collects its ranged CHANGE_NOTIFY, and the Notifies drain
// allocate nothing once the mailbox arenas, the frame buffers and the
// client's two notify slices have reached their working size.
func TestServeNotifyFastPathAllocs(t *testing.T) {
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := serve.NewServer(rt, serve.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cs, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	h, err := cs.Attach("hot", 256, 0, 256)
	if err == nil {
		err = cs.Subscribe(h)
	}
	if err != nil {
		t.Fatal(err)
	}

	var vals [16]dtt.Word
	var v dtt.Word
	request := func() {
		for i := range vals {
			v++
			vals[i] = v
		}
		changed, err := cs.Batch(h, int(v)%(256-len(vals)), vals[:])
		if err == nil {
			err = cs.Wait(h)
		}
		ns := cs.Notifies()
		if err != nil || changed != len(vals) || len(ns) != len(vals) {
			t.Fatalf("request: %d changed, %d notifies, err %v", changed, len(ns), err)
		}
	}
	// Warm-up: both halves of every double buffer, on both ends.
	for i := 0; i < 64; i++ {
		request()
	}
	if got := testing.AllocsPerRun(200, request); got != 0 {
		t.Errorf("subscribed 16-word Batch+Wait+Notifies allocates %.2f allocs/op, want 0", got)
	}
}

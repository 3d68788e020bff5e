package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/trace"
)

// TestBatchEquivalenceMatchesScalar is the semantic acceptance gate for
// batched triggering stores: the equivalence workload issued through
// TStoreBatch/TStoreRange must land on the same final memory as the scalar
// TStore stream on every backend, with identical store-stream counters
// (TStores, Silent, Fired — properties of the value stream, not the
// schedule) and the identity Fired = Enqueued + Squashed + Overflowed
// intact. On the deterministic deferred backend the batch preserves
// enqueue order exactly, so the WHOLE counter set
// must match the scalar run; the seeded backend legitimately differs in its
// enqueue/squash/inline split because a batch is one preemption point where
// a scalar loop is many — that is the documented semantic difference. The
// second table adds the update-merge plane as a third writer and pins the
// shared admission and run bracket under overflow and Cancel.
func TestBatchEquivalenceMatchesScalar(t *testing.T) {
	for _, cfg := range []Config{
		{Backend: BackendDeferred},
		{Backend: BackendSeeded, SchedSeed: 3},
		{Backend: BackendSeeded, SchedSeed: 11},
		{Backend: BackendImmediate, Workers: 3},
		{Backend: BackendImmediate, Workers: 2},
	} {
		scalar := runEquivalenceWorkload(t, cfg)
		batch := runEquivalenceWorkloadStores(t, cfg, true)
		for i := range scalar.out {
			if batch.out[i] != scalar.out[i] {
				t.Fatalf("%v workers=%d: batched out[%d] = %d, scalar run has %d",
					cfg.Backend, cfg.Workers, i, batch.out[i], scalar.out[i])
			}
		}
		if got, want := batch.stats.Fired, batch.stats.Enqueued+batch.stats.Squashed+batch.stats.Overflowed; got != want {
			t.Fatalf("%v workers=%d: batched Fired = %d but Enqueued+Squashed+Overflowed = %d",
				cfg.Backend, cfg.Workers, got, want)
		}
		if cfg.Backend != BackendImmediate {
			if batch.stats.TStores != scalar.stats.TStores ||
				batch.stats.Silent != scalar.stats.Silent ||
				batch.stats.Fired != scalar.stats.Fired {
				t.Fatalf("%v: batched trigger stats %+v diverge from scalar %+v",
					cfg.Backend, batch.stats, scalar.stats)
			}
		}
		if cfg.Backend == BackendDeferred && batch.stats != scalar.stats {
			t.Fatalf("deferred: batched stats diverge from scalar:\nbatch:  %+v\nscalar: %+v",
				batch.stats, scalar.stats)
		}
	}

	// Three writers, one outcome: the scalar store, the batched store and
	// the update-merge plane all admit through admitLocked and run through
	// the same instance bracket, so the same value stream must leave the
	// same memory and move the same dispatch counters whichever plane
	// wrote it — including when the queue overflows on every store and
	// when a Cancel lands between the write and the drain.
	for _, row := range []struct {
		name   string
		cap    int
		cancel bool
	}{
		{"cap4", 4, false},
		{"cap1-inline", 1, false},
		{"cancel", 32, true}, // room for every trigger: the Cancel finds hi's eight pending
	} {
		cfg := Config{QueueCapacity: row.cap, Checker: CheckStrict}
		same := func(phase string, a, b planeRun) {
			t.Helper()
			if a.dispatch != b.dispatch || a.qc != b.qc {
				t.Fatalf("%s %s: dispatch counters diverge:\n%+v %+v\n%+v %+v", row.name, phase, a.dispatch, a.qc, b.dispatch, b.qc)
			}
			for i := range a.mem {
				if a.mem[i] != b.mem[i] {
					t.Fatalf("%s %s: final memory word %d: %d vs %d", row.name, phase, i, a.mem[i], b.mem[i])
				}
			}
		}

		cfg.Backend = BackendDeferred
		scalar := runWritePlane(t, cfg, writeScalar, row.cancel)
		same("deferred scalar vs batch", scalar, runWritePlane(t, cfg, writeBatch, row.cancel))
		same("deferred scalar vs merge", scalar, runWritePlane(t, cfg, writeMerge, row.cancel))

		// Seeded: a batch and a merge are each ONE preemption point, so
		// they replay the same schedule and must agree on everything. A
		// scalar stream is a preemption point per store — the documented
		// difference — so only what the schedule cannot move is compared:
		// Fired and the trigger region always, the output region too
		// unless the row cancels (which triggers are still pending when
		// the Cancel lands is the schedule's choice).
		cfg.Backend, cfg.SchedSeed = BackendSeeded, 11
		batch := runWritePlane(t, cfg, writeBatch, row.cancel)
		same("seeded batch vs merge", batch, runWritePlane(t, cfg, writeMerge, row.cancel))
		scalar = runWritePlane(t, cfg, writeScalar, row.cancel)
		if scalar.dispatch.Fired != batch.dispatch.Fired {
			t.Fatalf("%s seeded: scalar Fired %d, batch Fired %d", row.name, scalar.dispatch.Fired, batch.dispatch.Fired)
		}
		scalar.dispatch, scalar.qc = batch.dispatch, batch.qc
		if row.cancel {
			scalar.mem, batch.mem = scalar.mem[:len(scalar.mem)/2], batch.mem[:len(batch.mem)/2]
		}
		same("seeded scalar vs batch", scalar, batch)

		// With a recorder: the trace must charge the same number of
		// triggering stores and release the same number of support tasks.
		cfg.Backend, cfg.SchedSeed = BackendDeferred, 0
		cfg.Recorder = trace.NewRecorder(nil)
		scalar = runWritePlane(t, cfg, writeScalar, row.cancel)
		cfg.Recorder = trace.NewRecorder(nil)
		batch = runWritePlane(t, cfg, writeBatch, row.cancel)
		same("recorded scalar vs batch", scalar, batch)
		if scalar.tstores != batch.tstores || scalar.released != batch.released {
			t.Fatalf("%s recorded: scalar trace has %d tstores / %d released tasks, batch %d / %d",
				row.name, scalar.tstores, scalar.released, batch.tstores, batch.released)
		}
	}
}

// writePlane names one of the three triggering-write planes.
type writePlane int

const (
	writeScalar writePlane = iota // Region.TStore per word
	writeBatch                    // one TStoreBatch/TStoreRange per round
	writeMerge                    // Region.TUpdate(UpdSet) per word; the sync point merges
)

// planeRun is what runWritePlane observed: final memory (trigger region
// then output region), the dispatch counters every plane must agree on,
// and with a recorder the trace's tstore and released-task counts.
type planeRun struct {
	mem      []mem.Word
	dispatch Stats
	qc       queue.Counters
	tstores  int64
	released int
}

// runWritePlane drives the equivalence value stream (five rounds over 16
// words, round 3 repeating round 2 so its writes are silent) through one
// write plane. Every word is written at most once between sync points, so
// the planes are comparable: a merge legitimately collapses repeated sets.
// With cancel, the hi thread is cancelled in round 1 between the write and
// the drain; the merge plane publishes through a Load first (Load is a
// merge point), so its triggers, like the other planes', are pending when
// the Cancel squashes them. The run must be sanitizer-clean.
func runWritePlane(t *testing.T, cfg Config, plane writePlane, cancel bool) planeRun {
	t.Helper()
	rec := cfg.Recorder
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	defer rt.Close()

	const half = 8
	in := rt.NewRegion("in", 2*half)
	out := rt.NewRegion("out", 2*half)
	lo := rt.Register("lo", func(tg Trigger) { out.Store(tg.Index, 3*tg.Region.Load(tg.Index)+1) })
	hi := rt.Register("hi", func(tg Trigger) { out.Store(tg.Index, tg.Region.Load(tg.Index)*tg.Region.Load(tg.Index)) })
	for th, lohi := range map[ThreadID][2]int{lo: {0, half}, hi: {half, 2 * half}} {
		if err := rt.Attach(th, in, lohi[0], lohi[1]); err != nil {
			t.Fatalf("Attach: %v", err)
		}
		if err := rt.AllowWrites(th, out, lohi[0], lohi[1]); err != nil {
			t.Fatalf("AllowWrites: %v", err)
		}
	}

	for round := 0; round < 5; round++ {
		r := round
		if r == 3 {
			r = 2
		}
		var vals [2 * half]mem.Word
		for i := range vals {
			vals[i] = uint64(r*31 + i*7 + 1)
		}
		switch plane {
		case writeScalar:
			for i, v := range vals {
				in.TStore(i, v)
			}
		case writeBatch:
			if round%2 == 0 {
				in.TStoreBatch(0, vals[:])
			} else {
				in.TStoreRange(0, 2*half, vals[:])
			}
		case writeMerge:
			for i, v := range vals {
				in.TUpdate(i, UpdSet, v)
			}
		}
		if cancel && round == 1 {
			if plane == writeMerge {
				in.Load(0)
			}
			rt.Cancel(hi)
		}
		switch round % 3 {
		case 0:
			rt.Wait(lo)
		case 1:
			rt.Wait(hi)
		case 2:
			rt.Barrier()
		}
	}
	rt.Barrier()

	st := rt.Stats()
	run := planeRun{
		mem: append(in.Snapshot(), out.Snapshot()...),
		dispatch: Stats{Fired: st.Fired, Enqueued: st.Enqueued, Squashed: st.Squashed, Overflowed: st.Overflowed,
			InlineRuns: st.InlineRuns, Dropped: st.Dropped, Executed: st.Executed},
		qc: rt.QueueCounters(),
	}
	if st.Fired != st.Enqueued+st.Squashed+st.Overflowed || st.Overflowed != st.InlineRuns+st.Dropped || st.FailedRuns != 0 {
		t.Fatalf("%v plane %d: counter identities broken: %+v", cfg.Backend, plane, st)
	}
	if err := rt.CheckErr(); err != nil {
		t.Fatalf("%v plane %d: sanitizer: %v", cfg.Backend, plane, err)
	}
	if rec != nil {
		tr, err := rec.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tr.Tasks {
			run.tstores += task.TStores
			if task.Kind == trace.KindSupport && len(task.Deps) > 0 {
				run.released++
			}
		}
	}
	return run
}

// TestConcurrentCascadesConserveCounters runs the cascading chains of
// TestInlineOverflowConcurrentCascades with a queue that has room for one
// entry per chain, so concurrent cascades share the one queue without
// overflowing on each other: the test asserts completion and counter
// conservation rather than overflow.
func TestConcurrentCascadesConserveCounters(t *testing.T) {
	const chains, hops, rounds = 4, 16, 10
	rt, err := New(Config{Backend: BackendImmediate, Workers: 4, QueueCapacity: chains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	regions := make([]*Region, chains)
	for c := 0; c < chains; c++ {
		regions[c] = rt.NewRegion(fmt.Sprintf("chain%d", c), hops)
		id := rt.Register(fmt.Sprintf("hop%d", c), func(tg Trigger) {
			if tg.Index+1 < hops {
				tg.Region.TStore(tg.Index+1, tg.Region.Load(tg.Index)+1)
			}
		})
		if err := rt.Attach(id, regions[c], 0, hops); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= rounds; round++ {
		base := uint64(round * 1000)
		for c := 0; c < chains; c++ {
			regions[c].TStore(0, base+uint64(c*100))
		}
		rt.Barrier()
		for c := 0; c < chains; c++ {
			want := base + uint64(c*100) + uint64(hops-1)
			if got := uint64(regions[c].Peek(hops - 1)); got != want {
				t.Fatalf("round %d chain %d: tail = %d, want %d", round, c, got, want)
			}
		}
	}
	assertQueueConservation(t, rt, "concurrent cascades")
	st := rt.Stats()
	if st.Overflowed != st.InlineRuns+st.Dropped {
		t.Fatalf("Overflowed %d != InlineRuns %d + Dropped %d", st.Overflowed, st.InlineRuns, st.Dropped)
	}
	if st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
		t.Fatalf("Fired %d != Enqueued %d + Squashed %d + Overflowed %d", st.Fired, st.Enqueued, st.Squashed, st.Overflowed)
	}
}

// TestBarrierWaitsOutCascade: a trigger chain of 16 hops, each hop a
// different thread, runs on four workers while Barrier waits. Barrier must
// neither return early (the chain tail would read stale) nor hang on a
// missed wakeup (the watchdog converts that into a stack dump): each hop's
// finish leaves the next hop's entry queued, so the quiescence count reaches
// zero only after the last one.
func TestBarrierWaitsOutCascade(t *testing.T) {
	const hops, rounds = 16, 50
	rt, err := New(Config{Backend: BackendImmediate, Workers: 4, QueueCapacity: hops})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	r := rt.NewRegion("chain", hops)
	// Thread k handles hop hops-1-k, so the hop sequence walks thread IDs
	// downwards.
	for k := 0; k < hops; k++ {
		id := rt.Register(fmt.Sprintf("hop%d", k), func(tg Trigger) {
			if tg.Index+1 < hops {
				tg.Region.TStore(tg.Index+1, tg.Region.Load(tg.Index)+1)
			}
		})
		hop := hops - 1 - int(id)
		if err := rt.Attach(id, r, hop, hop+1); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= rounds; round++ {
			base := uint64(round * 1000)
			r.TStore(0, base)
			rt.Barrier()
			if got := uint64(r.Peek(hops - 1)); got != base+hops-1 {
				t.Errorf("round %d: Barrier returned early: tail = %d, want %d", round, got, base+hops-1)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Barrier hung on a cascade:\n%s", buf[:runtime.Stack(buf, true)])
	}
	assertQueueConservation(t, rt, "barrier cascade")
}

// assertQueueConservation checks, at a quiescent point, Enqueued = Dequeued +
// SquashedOut + Len, and that the single quiescence count has settled: busy,
// read as a number under the dispatch lock, is the pending entries (nothing
// dispatched, no inline run in flight) with its lock-free flag agreeing, and
// no thread holds its token or has a dispatched entry outstanding.
func assertQueueConservation(t *testing.T, rt *Runtime, phase string) {
	t.Helper()
	d := rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	c, n := d.tq.Counters(), d.tq.Len()
	if c.Enqueued != c.Dequeued+c.SquashedOut+int64(n) {
		t.Fatalf("%s: Enqueued %d != Dequeued %d + SquashedOut %d + Len %d",
			phase, c.Enqueued, c.Dequeued, c.SquashedOut, n)
	}
	if d.busy != int64(n) || d.work.Load() != (n > 0) {
		t.Fatalf("%s: busy %d (work flag %v) at quiescence with %d pending entries", phase, d.busy, d.work.Load(), n)
	}
	for id, te := range rt.threadsSnap() {
		if te.dispatched != 0 || te.running != 0 {
			t.Fatalf("%s: thread %d: dispatched %d, running %d at quiescence", phase, id, te.dispatched, te.running)
		}
	}
}

// TestDispatchStress drives the dispatch plane with several producer
// goroutines storing into disjoint trigger ranges of eight threads, workers
// draining in parallel, with concurrent Wait/Barrier churn and a mid-run
// Cancel. Run under -race this covers the dispatch-lock protocol end to end;
// afterwards the counter conservation law must hold.
func TestDispatchStress(t *testing.T) {
	const (
		threads   = 8
		span      = 16 // trigger words per thread
		producers = 4
		stores    = 600
	)
	rt, err := New(Config{Backend: BackendImmediate, Workers: 4, QueueCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	in := rt.NewRegion("in", threads*span)
	out := rt.NewRegion("out", threads*span)
	ids := make([]ThreadID, threads)
	for i := 0; i < threads; i++ {
		ids[i] = rt.Register(fmt.Sprintf("t%d", i), func(tg Trigger) {
			out.Store(tg.Index, 2*tg.Region.Load(tg.Index)+1)
		})
		if err := rt.Attach(ids[i], in, i*span, (i+1)*span); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < stores; j++ {
				idx := (p*31 + j*7) % (threads * span)
				in.TStore(idx, uint64(j*producers+p+1))
			}
		}(p)
	}
	// Synchronisation churn concurrent with the producers: Waits on every
	// thread, full barriers, and a Cancel of the last thread mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			rt.Wait(ids[round%threads])
			if round == 10 {
				rt.Cancel(ids[threads-1])
			}
			if round%5 == 4 {
				rt.Barrier()
			}
		}
	}()
	wg.Wait()
	rt.Barrier()

	assertQueueConservation(t, rt, "dispatch stress")
	st := rt.Stats()
	if st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
		t.Fatalf("Fired %d != Enqueued %d + Squashed %d + Overflowed %d", st.Fired, st.Enqueued, st.Squashed, st.Overflowed)
	}
	if st.Overflowed != st.InlineRuns+st.Dropped {
		t.Fatalf("Overflowed %d != InlineRuns %d + Dropped %d", st.Overflowed, st.InlineRuns, st.Dropped)
	}
	// Every dequeued entry was executed — no panics in this workload —
	// except the unstarted rest of a run a worker had claimed when the one
	// Cancel landed: those left the queue and settled as cancelled work.
	qc := rt.QueueCounters()
	if dropped := qc.Dequeued - st.Executed; dropped < 0 || dropped >= claimMax {
		t.Fatalf("Executed %d vs Dequeued %d in a panic-free workload with one Cancel: the gap must be in [0, claimMax)", st.Executed, qc.Dequeued)
	}
	if st.FailedRuns != 0 {
		t.Fatalf("FailedRuns = %d in a panic-free workload", st.FailedRuns)
	}
}

// expectGoroutines waits for the process goroutine count to return to base,
// failing with a full stack dump if it does not within the deadline.
func expectGoroutines(t *testing.T, base int, phase string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines alive, test started with %d:\n%s",
				phase, runtime.NumGoroutine(), base, buf[:m])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutines is the goroutine-leak regression gate: Close
// on every backend — after a real workload — must leave no worker or waiter
// goroutine behind, including when Close races producers still driving
// inline-overflow runs.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	runOne := func(cfg Config) {
		rt, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", cfg.Backend, err)
		}
		r := rt.NewRegion("r", 8)
		th := rt.Register("w", func(tg Trigger) { _ = tg.Region.Load(tg.Index) })
		if err := rt.Attach(th, r, 0, 8); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			r.TStore(j%8, uint64(j+1))
		}
		rt.Wait(th)
		rt.Barrier()
		rt.Close()
		rt.Close() // idempotent
	}
	runOne(Config{Backend: BackendDeferred})
	runOne(Config{Backend: BackendImmediate, Workers: 4})
	runOne(Config{Backend: BackendSeeded, SchedSeed: 9})
	expectGoroutines(t, base, "after clean Close on all backends")

	// Close racing in-flight inline-overflow runs: a capacity-1 queue and
	// concurrent producers force the overflow-inline path while Close tears
	// the worker pool down mid-stream.
	rt, err := New(Config{Backend: BackendImmediate, Workers: 2, QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.NewRegion("hot", 4)
	th := rt.Register("busy", func(tg Trigger) { _ = tg.Region.Load(tg.Index) })
	if err := rt.Attach(th, r, 0, 4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				r.TStore(j%4, uint64(p*1000+j+1))
			}
		}(p)
	}
	rt.Close() // races the producers' inline overflow runs
	wg.Wait()
	expectGoroutines(t, base, "after Close racing inline overflow")
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtt/internal/mem"
)

// closeDeadline bounds each join after a Close: every one of them has at
// most a handful of trivial bodies left to run.
const closeDeadline = time.Second

// sealed reports whether Close has sealed rt's thread queue.
func sealed(rt *Runtime) bool {
	rt.d.mu.Lock()
	defer rt.d.mu.Unlock()
	return rt.d.tq.Sealed()
}

// TestCloseStrandsNothing: Close seals the thread queue, so a trigger after
// it runs inline on the storing goroutine, and every trigger admitted before
// it still runs — by the workers before Close returns, or by the next Wait
// or Barrier on the single-goroutine backends. A Wait or a Barrier after
// Close never blocks on work nobody will run.
func TestCloseStrandsNothing(t *testing.T) {
	for _, cfg := range []Config{
		{Backend: BackendDeferred},
		{Backend: BackendImmediate, Workers: 2},
		{Backend: BackendSeeded, SchedSeed: 7},
	} {
		cfg := cfg
		t.Run(cfg.Backend.String(), func(t *testing.T) {
			rt := newRuntime(t, cfg)
			in := rt.NewRegion("in", 8)
			var runs atomic.Int64
			th := rt.Register("t", func(Trigger) { runs.Add(1) })
			if err := rt.Attach(th, in, 0, 8); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				in.TStore(i, 1) // admitted before Close
			}
			rt.Close()
			for i := 4; i < 8; i++ {
				in.TStore(i, 1) // after Close: overflows and runs inline
			}
			withinFor(t, closeDeadline, "Wait after Close", func() { rt.Wait(th) })
			withinFor(t, closeDeadline, "Barrier after Close", rt.Barrier)
			st := rt.Stats()
			if runs.Load() != 8 || st.Executed != 4 || st.Overflowed != 4 || st.InlineRuns != 4 {
				t.Fatalf("ran %d (Executed %d, Overflowed %d, InlineRuns %d), want 8 (4, 4, 4)",
					runs.Load(), st.Executed, st.Overflowed, st.InlineRuns)
			}
			assertIdentities(t, rt, "store after Close")
		})
	}

	// An entry queued behind the run token of an inline run when Close
	// lands: its thread's token frees only after the one worker has gone
	// idle, so that worker must still be there to run it.
	t.Run("behind_token", func(t *testing.T) {
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1, QueueCapacity: 1})
		in := rt.NewRegion("in", 3)
		aStarted, aRelease := make(chan struct{}), newGate(t)
		tStarted, tRelease := make(chan struct{}), newGate(t)
		var aRuns, tRuns atomic.Int64
		a := rt.Register("a", func(Trigger) {
			if aRuns.Add(1) == 1 {
				close(aStarted)
				<-aRelease.ch
			}
		})
		th := rt.Register("t", func(Trigger) {
			if tRuns.Add(1) == 1 {
				close(tStarted)
				<-tRelease.ch
			}
		})
		if err := rt.Attach(a, in, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := rt.Attach(th, in, 1, 3); err != nil {
			t.Fatal(err)
		}
		in.TStore(0, 1) // the worker claims it and blocks in a's body
		await(t, "a's body", aStarted)
		in.TStore(1, 1) // queued: the queue's one slot
		stored := make(chan struct{})
		go func() {
			defer close(stored)
			in.TStore(2, 1) // overflows: t's body runs inline and blocks
		}()
		await(t, "t's inline body", tStarted)
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			rt.Close()
		}()
		within(t, "Close to seal the queue", func() {
			for !sealed(rt) {
				runtime.Gosched()
			}
		})
		aRelease.open()
		within(t, "a's run to settle", func() {
			for rt.Stats().Executed == 0 { // a's is the only queued run that can settle
				runtime.Gosched()
			}
		})
		tRelease.open()
		await(t, "the overflowing store", stored)
		withinFor(t, closeDeadline, "Wait on the entry behind the token", func() { rt.Wait(th) })
		awaitFor(t, closeDeadline, "Close", closed)
		st := rt.Stats()
		if aRuns.Load() != 1 || tRuns.Load() != 2 || st.Executed != 2 || st.InlineRuns != 1 {
			t.Fatalf("a ran %d, t ran %d (Executed %d, InlineRuns %d), want 1, 2 (2, 1)",
				aRuns.Load(), tRuns.Load(), st.Executed, st.InlineRuns)
		}
		assertIdentities(t, rt, "entry behind the token")
	})

	// Close racing producers that each loop {changing TStore; Wait} on a
	// one-slot queue, so admission, overflow and the seal interleave
	// arbitrarily. Every store's trigger runs exactly once.
	t.Run("stress", func(t *testing.T) {
		const producers, stores, rounds = 3, 40, 100
		for r := 0; r < rounds; r++ {
			rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1 + r%3, QueueCapacity: 1})
			in := rt.NewRegion("in", producers)
			var runs atomic.Int64
			ids := make([]ThreadID, producers)
			for p := range ids {
				ids[p] = rt.Register(fmt.Sprintf("p%d", p), func(Trigger) { runs.Add(1) })
				if err := rt.Attach(ids[p], in, p, p+1); err != nil {
					t.Fatal(err)
				}
			}
			withinFor(t, 10*time.Second, fmt.Sprintf("round %d", r), func() {
				var wg sync.WaitGroup
				for p := range ids {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for i := 1; i <= stores; i++ {
							in.TStore(p, mem.Word(i))
							rt.Wait(ids[p])
						}
					}(p)
				}
				for i := 0; i < r%producers*stores/2; i++ {
					runtime.Gosched() // land the Close at a different point each round
				}
				rt.Close()
				wg.Wait()
				rt.Barrier()
			})
			st := rt.Stats()
			if want := int64(producers * stores); runs.Load() != want || st.Executed+st.InlineRuns != want || st.Dropped != 0 {
				t.Fatalf("round %d: ran %d (Executed %d + InlineRuns %d, Dropped %d), want %d: one run per store",
					r, runs.Load(), st.Executed, st.InlineRuns, st.Dropped, want)
			}
			assertIdentities(t, rt, fmt.Sprintf("round %d", r))
		}
	})
}

package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dtt/internal/queue"
)

// TestRandomOpSequencesKeepInvariants drives a deferred runtime with
// arbitrary interleavings of tstores, waits, barriers and cancels and
// checks the stats conservation laws and the quiet-after-barrier property.
func TestRandomOpSequencesKeepInvariants(t *testing.T) {
	f := func(ops []struct {
		Kind uint8
		Idx  uint8
		Val  uint8
	}) bool {
		rt := newRuntime(t, Config{Backend: BackendDeferred, QueueCapacity: 3})
		data := rt.NewRegion("d", 16)
		id := rt.Register("r", func(tg Trigger) {
			// A thread body that itself loads and stores, exercising the
			// probe-free fast path.
			_ = tg.Region.Load(tg.Index)
		})
		id2 := rt.Register("r2", func(Trigger) {})
		if rt.Attach(id, data, 0, 16) != nil || rt.Attach(id2, data, 8, 16) != nil {
			return false
		}
		for _, op := range ops {
			switch op.Kind % 5 {
			case 0, 1:
				data.TStore(int(op.Idx)%16, uint64(op.Val%4))
			case 2:
				rt.Wait(id)
			case 3:
				rt.Barrier()
			case 4:
				// Store without trigger semantics mixed in.
				data.Store(int(op.Idx)%16, uint64(op.Val%4))
			}
		}
		rt.Barrier()
		assertQueueConservation(t, rt, "random ops")
		s := rt.Stats()
		if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
			return false
		}
		if s.Overflowed != s.InlineRuns+s.Dropped {
			return false
		}
		if s.Silent > s.TStores {
			return false
		}
		return rt.Status(id) == queue.StatusIdle && rt.Status(id2) == queue.StatusIdle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestImmediateStress hammers an immediate-backend runtime from the main
// goroutine while support threads run, with waits interleaved; run under
// -race this is the concurrency soak for the whole dispatch path.
func TestImmediateStress(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 4, QueueCapacity: 8})
	data := rt.NewRegion("d", 64)
	out := rt.NewRegion("o", 64)
	var runs atomic.Int64
	id := rt.Register("sq", func(tg Trigger) {
		v := tg.Region.Load(tg.Index)
		out.Store(tg.Index, v*v)
		runs.Add(1)
	})
	if err := rt.Attach(id, data, 0, 64); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 50; round++ {
		for i := 0; i < 64; i++ {
			data.TStore(i, uint64(round*((i%7)+1)))
		}
		if round%5 == 0 {
			rt.Wait(id)
			for i := 0; i < 64; i++ {
				v := data.Load(i)
				if got := out.Load(i); got != v*v {
					t.Fatalf("round %d: out[%d] = %d, want %d", round, i, got, v*v)
				}
			}
		}
	}
	rt.Barrier()
	s := rt.Stats()
	if s.Fired == 0 || runs.Load() == 0 {
		t.Fatalf("stress run fired nothing: %+v", s)
	}
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("conservation broken under concurrency: %+v", s)
	}
	assertQueueConservation(t, rt, "immediate stress")
}

// TestCascadeOverflowDoesNotDeadlock is a regression test: a support
// thread whose own triggering store overflows the queue used to wait for
// its own thread to go quiet. The recursive-inline path must run it on the
// spot instead on the deferred backend; on the immediate backend it is a
// mark, which the body's own bracket sweeps when the body returns.
func TestCascadeOverflowDoesNotDeadlock(t *testing.T) {
	for _, backend := range []Backend{BackendDeferred, BackendImmediate} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			rt := newRuntime(t, Config{Backend: backend, Workers: 2, QueueCapacity: 1})
			chain := rt.NewRegion("chain", 8)
			runs := 0
			var mu sync.Mutex
			id := rt.Register("hop", func(tg Trigger) {
				mu.Lock()
				runs++
				mu.Unlock()
				if tg.Index+1 < chain.Len() {
					// Cascading trigger from inside the body; with
					// capacity 1 this overflows while we are running.
					chain.TStore(tg.Index+1, tg.Region.Load(tg.Index)+1)
				}
			})
			if err := rt.Attach(id, chain, 0, 8); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				chain.TStore(0, 1)
				rt.Barrier()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("cascade with overflowing queue deadlocked")
			}
			mu.Lock()
			defer mu.Unlock()
			if runs != 8 {
				t.Fatalf("cascade ran %d hops, want 8", runs)
			}
			for i := 0; i < 8; i++ {
				if got := chain.Peek(i); got != uint64(i+1) {
					t.Fatalf("chain[%d] = %d, want %d", i, got, i+1)
				}
			}
		})
	}
}

// TestInlineOverflowConcurrentCascades hammers the overflow-inline path on
// the immediate backend: several cascading chains with a capacity-1 queue,
// so nearly every cascading store overflows while instances of the same and
// other threads are executing on workers. Run under -race this covers the
// run-token handoff between workers and inline runners. Afterwards the
// accounting invariant from internal/core/stats.go must hold exactly:
// Overflowed = InlineRuns + Dropped.
func TestInlineOverflowConcurrentCascades(t *testing.T) {
	// All four chains fight over one capacity-1 queue so cascades overflow
	// (see TestConcurrentCascadesConserveCounters for a queue with room).
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 4, QueueCapacity: 1})
	const chains, hops, rounds = 4, 16, 10
	regions := make([]*Region, chains)
	for c := 0; c < chains; c++ {
		regions[c] = rt.NewRegion(fmt.Sprintf("chain%d", c), hops)
		id := rt.Register(fmt.Sprintf("hop%d", c), func(tg Trigger) {
			if tg.Index+1 < hops {
				// Cascading trigger from inside the body; with capacity 1
				// it almost always overflows and runs inline.
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
			for i := 0; i < hops; i++ {
				if got, want := regions[c].Peek(i), base+uint64(c*100)+uint64(i); got != want {
					t.Fatalf("round %d chain %d: [%d] = %d, want %d", round, c, i, got, want)
				}
			}
		}
	}
	s := rt.Stats()
	if s.Overflowed == 0 {
		t.Fatalf("capacity-1 cascade stress never overflowed: %+v", s)
	}
	if s.Overflowed != s.InlineRuns+s.Dropped {
		t.Fatalf("Overflowed %d != InlineRuns %d + Dropped %d", s.Overflowed, s.InlineRuns, s.Dropped)
	}
	if s.Dropped != 0 {
		t.Fatalf("inline overflow dropped %d triggers with no Cancel in the program", s.Dropped)
	}
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("conservation broken: %+v", s)
	}
	qc := queueCounters(rt)
	if qc.Enqueued != qc.Dequeued+qc.SquashedOut {
		t.Fatalf("queue conservation broken after quiesce: %+v", qc)
	}
	assertQueueConservation(t, rt, "concurrent inline cascades")
}

// TestCancelWhileWorkInFlight cancels a thread racing with its own
// triggers on the immediate backend; afterwards the runtime must be quiet
// and further triggers inert.
func TestCancelWhileWorkInFlight(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2, QueueCapacity: 128})
	// One word per store up to the Cancel: distinct trigger addresses, so
	// none of the backlog the Cancel races is squashed away.
	data := rt.NewRegion("d", 100)
	var runs atomic.Int64
	id := rt.Register("r", func(Trigger) { runs.Add(1) })
	rt.Attach(id, data, 0, 100)
	for i := 1; i <= 200; i++ {
		data.TStore(i%100, uint64(i))
		if i == 100 {
			rt.Cancel(id)
		}
	}
	rt.Barrier()
	after := runs.Load()
	data.TStore(0, 9999)
	rt.Barrier()
	if runs.Load() != after {
		t.Fatalf("cancelled thread fired again")
	}
	if rt.Status(id) != queue.StatusIdle {
		t.Fatalf("cancelled thread not idle: %v", rt.Status(id))
	}
	assertQueueConservation(t, rt, "cancel in flight")
}

// TestCloseLeavesPendingUnexecuted documents Close's contract on the
// single-goroutine backends: it seals the queue without draining it, and the
// next Wait or Barrier runs what it holds (TestCloseStrandsNothing). On the
// immediate backend Close returns only once the workers have run it dry.
func TestCloseLeavesPendingUnexecuted(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendDeferred, QueueCapacity: 64})
	data := rt.NewRegion("d", 8)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 8)
	for i := 0; i < 8; i++ {
		data.TStore(i, 1)
	}
	rt.Close() // no Wait/Barrier first
	if runs != 0 {
		t.Fatalf("Close drained the queue: %d runs", runs)
	}
	if s := rt.Stats(); s.Enqueued != 8 || s.Executed != 0 {
		t.Fatalf("stats after Close: %+v", s)
	}
	// Nothing was dispatched: busy is exactly the eight entries left behind.
	assertQueueConservation(t, rt, "close without drain")
}

// TestWaitOnForeignThreadReturns ensures Wait on a never-armed thread does
// not block.
func TestWaitOnForeignThreadReturns(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1})
	id := rt.Register("idle", func(Trigger) {})
	done := make(chan struct{})
	go func() {
		rt.Wait(id)
		close(done)
	}()
	<-done
}

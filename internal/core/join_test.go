package core

import (
	"sync"
	"testing"
	"time"

	"dtt/internal/mem"
)

// Tests of the joined write (Region.TStoreBatchJoin): a batch whose thread's
// backlog fits one claim joins that thread on the writer, and wakes no worker
// when the join will run everything the ring holds. Each fallback must
// strand nothing: a Barrier, which never runs work itself, returns only if a
// worker was woken for whatever the join left.

// parked returns how many workers sleep on rt.idle.
func parked(rt *Runtime) int {
	rt.d.mu.Lock()
	defer rt.d.mu.Unlock()
	return len(rt.idle)
}

// awaitParked returns once n workers sleep on rt.idle.
func awaitParked(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	for deadline := time.Now().Add(claimDeadline); parked(rt) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers parked after %v, want %d", parked(rt), claimDeadline, n)
		}
	}
}

func ones(n int) []mem.Word {
	vs := make([]mem.Word, n)
	for i := range vs {
		vs[i] = 1
	}
	return vs
}

// TestTStoreBatchJoinRunsOnCaller: with the one worker parked, a joined batch
// of up to one claim runs every body on the caller, as queued instances, and
// leaves the worker asleep.
func TestTStoreBatchJoinRunsOnCaller(t *testing.T) {
	for _, n := range []int{1, claimMax} {
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1})
		in := rt.NewRegion("in", n)
		var mu sync.Mutex
		var ran []uint64 // the goroutine each body ran on
		tid := rt.Register("t", func(Trigger) {
			mu.Lock()
			ran = append(ran, goid())
			mu.Unlock()
		})
		if err := rt.Attach(tid, in, 0, n); err != nil {
			t.Fatal(err)
		}
		awaitParked(t, rt, 1)
		before := rt.Stats()
		var caller uint64
		var changed int
		var quiet bool
		within(t, "the joined batch", func() {
			caller = goid()
			changed, quiet = in.TStoreBatchJoin(0, ones(n), tid)
		})
		if changed != n || !quiet {
			t.Fatalf("n=%d: TStoreBatchJoin = %d, %v; want %d, true", n, changed, quiet, n)
		}
		st := rt.Stats()
		if st.Executed-before.Executed != int64(n) || st.WorkerWakes != before.WorkerWakes || st.Waits-before.Waits != 1 {
			t.Fatalf("n=%d: Executed +%d WorkerWakes +%d Waits +%d, want +%d +0 +1",
				n, st.Executed-before.Executed, st.WorkerWakes-before.WorkerWakes, st.Waits-before.Waits, n)
		}
		mu.Lock()
		for i, g := range ran {
			if g != caller {
				t.Fatalf("n=%d: body %d ran on goroutine %d, not the caller's %d", n, i, g, caller)
			}
		}
		mu.Unlock()
		if got := parked(rt); got != 1 {
			t.Fatalf("n=%d: %d workers parked after the joined batch, want the one that never woke", n, got)
		}
		assertIdentities(t, rt, "joined batch")
	}
}

// TestTStoreBatchJoinFallbacks: a joined batch wakes a worker whenever its
// join would not run everything the ring holds — t's token held by a blocked
// body, a backlog past one claim, another thread's entry in the ring — and a
// Cancel between admission and the join leaves the join nothing to run. In
// every case a Barrier returns and the identities hold.
func TestTStoreBatchJoinFallbacks(t *testing.T) {
	const k = 4
	t.Run("held_token", func(t *testing.T) {
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
		in := rt.NewRegion("in", 1+k)
		entered, plug := make(chan struct{}, 1), newGate(t)
		tid := rt.Register("t", func(tg Trigger) {
			if tg.Index == 0 {
				entered <- struct{}{}
				<-plug.ch
			}
		})
		if err := rt.Attach(tid, in, 0, 1+k); err != nil {
			t.Fatal(err)
		}
		in.TStore(0, 1)
		await(t, "t's plug body", entered)
		awaitParked(t, rt, 1)
		before := rt.Stats()
		var quiet bool
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			_, quiet = in.TStoreBatchJoin(1, ones(k), tid)
		}()
		for deadline := time.Now().Add(claimDeadline); rt.Stats().WorkerWakes == before.WorkerWakes; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("a batch behind a held token woke no worker")
			}
		}
		select {
		case <-joined:
			t.Fatal("the join returned while t's token holder was blocked")
		case <-time.After(50 * time.Millisecond):
		}
		plug.open()
		await(t, "the join once the plug opens", joined)
		if !quiet {
			t.Fatal("the join ran but the batch reported not quiet")
		}
		within(t, "Barrier", rt.Barrier)
		if st := rt.Stats(); st.Executed != 1+k {
			t.Fatalf("Executed %d, want %d", st.Executed, 1+k)
		}
		assertIdentities(t, rt, "held token")
	})
	t.Run("backlog_17", func(t *testing.T) {
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1})
		in := rt.NewRegion("in", claimMax+1)
		tid := rt.Register("t", func(Trigger) {})
		if err := rt.Attach(tid, in, 0, claimMax+1); err != nil {
			t.Fatal(err)
		}
		awaitParked(t, rt, 1)
		before := rt.Stats()
		var changed int
		var quiet bool
		within(t, "the joined batch", func() { changed, quiet = in.TStoreBatchJoin(0, ones(claimMax+1), tid) })
		if changed != claimMax+1 || quiet {
			t.Fatalf("TStoreBatchJoin = %d, %v; want %d, false", changed, quiet, claimMax+1)
		}
		if st := rt.Stats(); st.WorkerWakes-before.WorkerWakes != 1 || st.Waits != before.Waits {
			t.Fatalf("WorkerWakes +%d Waits +%d, want +1 +0: a backlog past one claim is the worker's", st.WorkerWakes-before.WorkerWakes, st.Waits-before.Waits)
		}
		within(t, "Barrier", rt.Barrier)
		if st := rt.Stats(); st.Executed != claimMax+1 {
			t.Fatalf("Executed %d, want %d", st.Executed, claimMax+1)
		}
		assertIdentities(t, rt, "backlog past one claim")
	})
	t.Run("other_thread", func(t *testing.T) {
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
		in := rt.NewRegion("in", 2+k)
		entered, plug := make(chan struct{}, 1), newGate(t)
		u := rt.Register("u", func(tg Trigger) {
			if tg.Index == 0 {
				entered <- struct{}{}
				<-plug.ch
			}
		})
		tid := rt.Register("t", func(Trigger) {})
		if err := rt.Attach(u, in, 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := rt.Attach(tid, in, 2, 2+k); err != nil {
			t.Fatal(err)
		}
		in.TStore(0, 1)
		await(t, "u's plug body", entered)
		in.TStore(1, 1) // u's second entry waits in the ring behind u's token
		awaitParked(t, rt, 1)
		before := rt.Stats()
		var quiet bool
		within(t, "the joined batch", func() { _, quiet = in.TStoreBatchJoin(2, ones(k), tid) })
		st := rt.Stats()
		if !quiet || st.WorkerWakes == before.WorkerWakes || st.Executed-before.Executed != k {
			t.Fatalf("quiet %v WorkerWakes +%d Executed +%d, want true, at least +1, +%d",
				quiet, st.WorkerWakes-before.WorkerWakes, st.Executed-before.Executed, k)
		}
		plug.open()
		within(t, "Barrier", rt.Barrier)
		if st := rt.Stats(); st.Executed != 2+k {
			t.Fatalf("Executed %d, want %d", st.Executed, 2+k)
		}
		assertIdentities(t, rt, "another thread's entry")
	})
	t.Run("cancel_before_join", func(t *testing.T) {
		// The queue holds exactly t's k entries, so u's entry overflows and
		// runs inline on the writer, after admission and before the join:
		// its body cancels t.
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1, QueueCapacity: k})
		in := rt.NewRegion("in", k+1)
		tid := rt.Register("t", func(Trigger) {})
		u := rt.Register("u", func(Trigger) { rt.Cancel(tid) })
		if err := rt.Attach(tid, in, 0, k); err != nil {
			t.Fatal(err)
		}
		if err := rt.Attach(u, in, k, k+1); err != nil {
			t.Fatal(err)
		}
		awaitParked(t, rt, 1)
		before := rt.Stats()
		var quiet bool
		within(t, "the joined batch", func() { _, quiet = in.TStoreBatchJoin(0, ones(k+1), tid) })
		st := rt.Stats()
		if !quiet || st.Executed != before.Executed || st.InlineRuns-before.InlineRuns != 1 || st.WorkerWakes != before.WorkerWakes {
			t.Fatalf("quiet %v Executed +%d InlineRuns +%d WorkerWakes +%d, want true +0 +1 +0: the cancel squashed what the join would run",
				quiet, st.Executed-before.Executed, st.InlineRuns-before.InlineRuns, st.WorkerWakes-before.WorkerWakes)
		}
		if n := pendingOf(rt, tid); n != 0 {
			t.Fatalf("%d entries of the cancelled thread still queued", n)
		}
		within(t, "Barrier", rt.Barrier)
		assertIdentities(t, rt, "cancel before the join")
	})
}

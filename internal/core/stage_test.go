package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtt/internal/mem"
	"dtt/internal/queue"
)

// Tests of the stage: a changing covered scalar store made while every
// worker runs a body stages its word, and the flushes admit the staged words
// wherever queue state is read or changed. Each test below fails when the
// flush at its point is removed.

// stageDeadline bounds a wait for a staged trigger's run: a word nobody
// flushes would wait forever.
const stageDeadline = 10 * time.Second

// newStageRuntime returns an immediate runtime with one worker and a queue
// that holds two stages, so it stages.
func newStageRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1, QueueCapacity: 4 * stageMax})
	if rt.stg == nil {
		t.Fatal("an immediate runtime whose queue holds two stages has no stage")
	}
	return rt
}

// plugWorker runs a blocker body on rt's one worker and returns once it
// holds the worker; the body returns when the gate opens.
func plugWorker(t *testing.T, rt *Runtime) *gate {
	t.Helper()
	g := newGate(t)
	plug := rt.NewRegion("plug", 1)
	started := make(chan struct{})
	id := rt.Register("blocker", func(Trigger) {
		close(started)
		<-g.ch
	})
	if err := rt.Attach(id, plug, 0, 1); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	plug.TStore(0, 1)
	await(t, "the blocker holds the worker", started)
	return g
}

// expectStaged fails unless exactly n words are staged.
func expectStaged(t *testing.T, rt *Runtime, n int, what string) {
	t.Helper()
	if got := rt.stg.n.Load(); got != int32(n) {
		t.Fatalf("%s: %d words staged, want %d", what, got, n)
	}
}

// queueCounters reads the thread queue's lifetime counters, staged words
// flushed first.
func queueCounters(rt *Runtime) queue.Counters { return rt.ShardCounters()[0] }

// expectIdentities checks the Stats identities at quiescence.
func expectIdentities(t *testing.T, rt *Runtime, phase string) Stats {
	t.Helper()
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("%s: Fired %d != Enqueued %d + Squashed %d + Overflowed %d", phase, s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	}
	if s.Overflowed != s.InlineRuns+s.Dropped {
		t.Fatalf("%s: Overflowed %d != InlineRuns %d + Dropped %d", phase, s.Overflowed, s.InlineRuns, s.Dropped)
	}
	assertQueueConservation(t, rt, phase)
	return s
}

// TestStageWorkerFlushesBeforeSleep: a staged word runs although the
// producer makes no further runtime call — the worker that finds nothing to
// claim flushes the stage instead of sleeping.
func TestStageWorkerFlushesBeforeSleep(t *testing.T) {
	rt := newStageRuntime(t)
	in := rt.NewRegion("in", 4)
	ran := make(chan struct{})
	a := rt.Register("a", func(Trigger) { close(ran) })
	if err := rt.Attach(a, in, 0, 4); err != nil {
		t.Fatal(err)
	}
	plug := plugWorker(t, rt)
	in.TStore(0, 1)
	expectStaged(t, rt, 1, "a store with every worker busy")
	plug.open()
	awaitFor(t, stageDeadline, "the staged trigger's run", ran)
}

// TestStageStatusAndStatsFlush: Status and Stats see a store staged just
// before them.
func TestStageStatusAndStatsFlush(t *testing.T) {
	rt := newStageRuntime(t)
	in := rt.NewRegion("in", 4)
	a := rt.Register("a", func(Trigger) {})
	if err := rt.Attach(a, in, 0, 4); err != nil {
		t.Fatal(err)
	}
	plug := plugWorker(t, rt)
	s0 := rt.Stats()

	in.TStore(0, 1)
	expectStaged(t, rt, 1, "first store")
	if st := rt.Status(a); st != queue.StatusPending {
		t.Fatalf("Status after a staged trigger of a: %v, want pending", st)
	}
	in.TStore(1, 1)
	expectStaged(t, rt, 1, "second store")
	s := rt.Stats()
	if d := s.Fired - s0.Fired; d != 2 || s.Enqueued-s0.Enqueued != 2 || s.TStores-s0.TStores != 2 {
		t.Fatalf("Stats after two staged stores: Fired +%d, Enqueued +%d, TStores +%d, want +2 each",
			d, s.Enqueued-s0.Enqueued, s.TStores-s0.TStores)
	}
	plug.open()
	rt.Barrier()
	expectIdentities(t, rt, "after Barrier")
}

// TestStageWaitFlushes: Wait(t) sees a trigger of t staged just before it.
// The worker is plugged and t's token free, so the join runs the entry on
// the caller and returns after it.
func TestStageWaitFlushes(t *testing.T) {
	rt := newStageRuntime(t)
	in := rt.NewRegion("in", 4)
	var ran atomic.Int64
	a := rt.Register("a", func(Trigger) { ran.Add(1) })
	if err := rt.Attach(a, in, 0, 4); err != nil {
		t.Fatal(err)
	}
	plug := plugWorker(t, rt)
	in.TStore(0, 1)
	expectStaged(t, rt, 1, "the store before Wait")
	rt.Wait(a)
	if n := ran.Load(); n != 1 {
		t.Fatalf("Wait returned after %d runs of its thread's staged trigger, want 1", n)
	}
	plug.open()
	rt.Barrier()
	expectIdentities(t, rt, "after Barrier")
}

// TestStageBarrierRunsCascades: Barrier returns only after the cascades that
// bodies staged have run. With one worker every store a body makes stages
// (the one worker is busy running it), so a chain a → b → c is two staged
// hops; the last body counts. So does a store the test makes before the new
// runtime's worker first goes idle: busy is zero then, with the word staged,
// which only Barrier's own flush admits in time. Each round of the outer loop
// is a fresh runtime, to meet that window.
func TestStageBarrierRunsCascades(t *testing.T) {
	var staged atomic.Int64
	for r := 0; r < 10; r++ {
		rt := newStageRuntime(t)
		in := rt.NewRegion("in", 1)
		mid := rt.NewRegion("mid", 1)
		out := rt.NewRegion("out", 1)
		var ran atomic.Int64
		a := rt.Register("a", func(tg Trigger) {
			mid.TStore(0, tg.Region.Load(0))
			staged.Add(int64(rt.stg.n.Load()))
		})
		b := rt.Register("b", func(tg Trigger) { out.TStore(0, tg.Region.Load(0)) })
		c := rt.Register("c", func(Trigger) { ran.Add(1) })
		for _, at := range []struct {
			th ThreadID
			r  *Region
		}{{a, in}, {b, mid}, {c, out}} {
			if err := rt.Attach(at.th, at.r, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		const rounds = 20
		for i := 1; i <= rounds; i++ {
			in.TStore(0, mem.Word(i))
			rt.Barrier()
			if got := ran.Load(); got != int64(i) {
				t.Fatalf("runtime %d, round %d: Barrier returned after %d runs of the cascade's end, want %d", r, i, got, i)
			}
		}
		expectIdentities(t, rt, "after the cascades")
		rt.Close()
	}
	if staged.Load() == 0 {
		t.Fatal("no body's store staged: the test does not exercise the stage")
	}
}

// TestStageKeepsStoreOrder: one thread's entries run in store order across a
// staged scalar store followed by a TStoreBatch, a merge and a joined batch —
// each of those flushes the stage before its own admission.
func TestStageKeepsStoreOrder(t *testing.T) {
	rt := newStageRuntime(t)
	in := rt.NewRegion("in", 8)
	var mu sync.Mutex
	var order []int
	a := rt.Register("a", func(tg Trigger) {
		mu.Lock()
		order = append(order, tg.Index)
		mu.Unlock()
	})
	if err := rt.Attach(a, in, 0, 8); err != nil {
		t.Fatal(err)
	}
	plug := plugWorker(t, rt)

	in.TStore(0, 1)
	expectStaged(t, rt, 1, "store 0")
	in.TStoreBatch(1, []mem.Word{1, 1})
	expectStaged(t, rt, 0, "after the batch")
	in.TStore(3, 1)
	expectStaged(t, rt, 1, "store 3")
	in.TUpdate(4, UpdAdd, 1)
	if got := in.Load(4); got != 1 { // the merge point
		t.Fatalf("merged word 4 = %d, want 1", got)
	}
	expectStaged(t, rt, 0, "after the merge")
	in.TStore(5, 1)
	expectStaged(t, rt, 1, "store 5")
	// The worker is plugged and a's token free: the joined batch joins a
	// and runs its seven entries on this goroutine.
	if _, quiet := in.TStoreBatchJoin(6, []mem.Word{1}, a); !quiet {
		t.Fatal("the joined batch did not join a's backlog of seven")
	}
	plug.open()
	rt.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(order, want) {
		t.Fatalf("a ran for words %v, want store order %v", order, want)
	}
	expectIdentities(t, rt, "after Barrier")
}

// TestStageCancelKeepsIdentities: a Cancel between staging and flush counts
// the staged trigger as a direct store's would have been — fired, enqueued,
// then squashed by the Cancel — and it never runs, not even for the thread
// re-attached behind the Cancel.
func TestStageCancelKeepsIdentities(t *testing.T) {
	rt := newStageRuntime(t)
	in := rt.NewRegion("in", 4)
	var ran atomic.Int64
	a := rt.Register("a", func(Trigger) { ran.Add(1) })
	if err := rt.Attach(a, in, 0, 4); err != nil {
		t.Fatal(err)
	}
	plug := plugWorker(t, rt)
	s0 := rt.Stats()
	q0 := queueCounters(rt)

	in.TStore(0, 1)
	expectStaged(t, rt, 1, "the store before the Cancel")
	rt.Cancel(a)
	if err := rt.Attach(a, in, 0, 4); err != nil {
		t.Fatal(err)
	}
	plug.open()
	rt.Barrier()
	s := expectIdentities(t, rt, "after Barrier")
	q := queueCounters(rt)
	if s.Fired-s0.Fired != 1 || s.Enqueued-s0.Enqueued != 1 || q.SquashedOut-q0.SquashedOut != 1 {
		t.Fatalf("the staged store cancelled: Fired +%d, Enqueued +%d, SquashedOut +%d, want +1 each",
			s.Fired-s0.Fired, s.Enqueued-s0.Enqueued, q.SquashedOut-q0.SquashedOut)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("the cancelled trigger ran %d times", n)
	}
}

// TestStageClose: Close flushes what is staged — the workers, once sealed
// and quiescent, exit without looking at the stage — and nothing stages after
// it: a later store runs inline on the writer.
func TestStageClose(t *testing.T) {
	rt := newStageRuntime(t)
	in := rt.NewRegion("in", 4)
	var ran atomic.Int64
	a := rt.Register("a", func(Trigger) { ran.Add(1) })
	if err := rt.Attach(a, in, 0, 4); err != nil {
		t.Fatal(err)
	}
	plug := plugWorker(t, rt)
	in.TStore(0, 1)
	expectStaged(t, rt, 1, "the store before Close")
	time.AfterFunc(10*time.Millisecond, plug.open)
	withinFor(t, stageDeadline, "Close", rt.Close)
	if n := ran.Load(); n != 1 {
		t.Fatalf("Close returned after %d runs of the staged trigger, want 1", n)
	}
	in.TStore(1, 1)
	expectStaged(t, rt, 0, "a store after Close")
	if n := ran.Load(); n != 2 {
		t.Fatalf("a store after Close: %d runs, want 2 (the second inline)", n)
	}
	expectIdentities(t, rt, "after Close")
}

// TestStageStress drives the stage from several producers at once — scalar
// stores into eight threads' ranges whose bodies cascade into a ninth, with
// Waits, Barriers, Status and a Cancel mid-run — on two workers, then checks
// the counter identities and that every thread ran for its last store.
// Under -race it covers the stage's lock and counts end to end.
func TestStageStress(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2, QueueCapacity: 2 * stageMax})
	const threads, span, producers, rounds = 8, 16, 4, 300
	in := rt.NewRegion("in", threads*span)
	sink := rt.NewRegion("sink", threads)
	var tail atomic.Int64
	cascade := rt.Register("cascade", func(Trigger) { tail.Add(1) })
	if err := rt.Attach(cascade, sink, 0, threads); err != nil {
		t.Fatal(err)
	}
	ids := make([]ThreadID, threads)
	for k := range ids {
		k := k
		ids[k] = rt.Register(fmt.Sprintf("t%d", k), func(tg Trigger) {
			sink.TStore(k, tg.Region.Load(tg.Index))
		})
		if err := rt.Attach(ids[k], in, k*span, (k+1)*span); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				for k := p; k < threads; k += producers {
					in.TStore(k*span+i%span, mem.Word(i*producers+p))
				}
				switch i % 50 {
				case 10:
					rt.Wait(ids[p])
				case 20:
					rt.Status(ids[(p+1)%threads])
				case 30:
					rt.Barrier()
				}
			}
		}()
	}
	time.AfterFunc(time.Millisecond, func() {
		rt.Cancel(ids[threads-1])
	})
	withinFor(t, claimDeadline, "the producers", wg.Wait)
	rt.Barrier()
	s := expectIdentities(t, rt, "after the stress")
	if s.Executed == 0 || tail.Load() == 0 {
		t.Fatalf("nothing ran: %+v", s)
	}
}

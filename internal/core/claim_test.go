package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtt/internal/mem"
	"dtt/internal/queue"
)

// Tests of the immediate backend's burst-granular dispatch: a worker claims
// a run of one thread's entries per critical section (worker), a worker with
// nothing to claim sleeps on the idle list in the same hold of the dispatch
// lock, producers wake one from it (wakeWorker), and the whole thing must not
// lose a wakeup. Everything here waits on events with a hard deadline; a hang dumps
// every goroutine's stack.

const claimDeadline = 120 * time.Second

// within runs f on its own goroutine and fails the test, with all stacks,
// if it has not returned by the deadline.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	withinFor(t, claimDeadline, what, f)
}

// withinFor is within with its own deadline.
func withinFor(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	awaitFor(t, d, what, done)
}

func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	awaitFor(t, claimDeadline, what, ch)
}

func awaitFor(t *testing.T, d time.Duration, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: not done after %v:\n%s", what, d, buf[:runtime.Stack(buf, true)])
	}
}

// gate parks a body until the test opens it. open closes the channel at most
// once, and newGate registers it as a cleanup too, so a failed assertion
// cannot leave a worker blocked: registered after t.Cleanup(rt.Close), it
// runs before the Close that waits for that worker (cleanups run last in,
// first out).
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate(t *testing.T) *gate {
	g := &gate{ch: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

// claimGeometries are the shapes the claim tests sweep: w workers, and s
// threads sharing the one queue — the test's own plus s-1 bystanders (see
// crowd) whose entries sit in the ring ahead of the test's stores.
func claimGeometries(t *testing.T, f func(t *testing.T, workers, sharers int)) {
	for _, workers := range []int{1, 2, 4} {
		for _, sharers := range []int{1, 4} {
			workers, sharers := workers, sharers
			t.Run(fmt.Sprintf("w%d_s%d", workers, sharers), func(t *testing.T) { f(t, workers, sharers) })
		}
	}
}

// bystanders are the n-1 threads crowd registers beside a claim test's own.
type bystanders struct {
	rt  *Runtime
	in  *Region
	ids []ThreadID
	n   int64 // rounds queued
}

// crowd registers sharers-1 bystander threads, each attached to its own word.
func crowd(t *testing.T, rt *Runtime, sharers int) *bystanders {
	t.Helper()
	b := &bystanders{rt: rt, in: rt.NewRegion("bystanders", sharers)}
	for k := 1; k < sharers; k++ {
		id := rt.Register(fmt.Sprintf("bystander%d", k), func(Trigger) {})
		if err := rt.Attach(id, b.in, k, k+1); err != nil {
			t.Fatal(err)
		}
		b.ids = append(b.ids, id)
	}
	return b
}

// queue enqueues one entry of every bystander.
func (b *bystanders) queue() {
	b.n++
	for k := range b.ids {
		b.in.TStore(k+1, mem.Word(b.n))
	}
}

// wait returns once every bystander entry has run, and reports how many
// have: one per bystander per queue call.
func (b *bystanders) wait() int64 {
	for _, id := range b.ids {
		b.rt.Wait(id)
	}
	return b.n * int64(len(b.ids))
}

func assertIdentities(t *testing.T, rt *Runtime, phase string) {
	t.Helper()
	st := rt.Stats()
	if st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
		t.Fatalf("%s: Fired %d != Enqueued %d + Squashed %d + Overflowed %d", phase, st.Fired, st.Enqueued, st.Squashed, st.Overflowed)
	}
	if st.Overflowed != st.InlineRuns+st.Dropped {
		t.Fatalf("%s: Overflowed %d != InlineRuns %d + Dropped %d", phase, st.Overflowed, st.InlineRuns, st.Dropped)
	}
	assertQueueConservation(t, rt, phase)
}

// pendingOf returns how many entries of thread t the ring holds: 0, read
// from inside entry 1's body of a claimed run, means the claim took every
// entry of t that was queued.
func pendingOf(rt *Runtime, t ThreadID) int {
	d := rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tq.PendingCount(t)
}

// tokenOf returns thread t's run token: the instances of t executing.
func tokenOf(rt *Runtime, t ThreadID) int {
	d := rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	return rt.threadsSnap()[t].running
}

// TestClaimOrderAndExactlyOnce: whatever the claim boundaries, each thread's
// instances run in enqueue order and every entry runs exactly once. Batches
// enqueue a whole span in one critical section, so claims of claimMax, of a
// remainder and of one all occur; scalar stores interleave the threads so
// runs end at another thread's entry too.
func TestClaimOrderAndExactlyOnce(t *testing.T) {
	claimGeometries(t, func(t *testing.T, workers, sharers int) {
		const threads, span, rounds = 6, 40, 25
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: workers, QueueCapacity: threads*span + sharers})
		others := crowd(t, rt, sharers)
		in := rt.NewRegion("in", threads*span)
		got := make([][]int, threads) // each written only under its thread's token
		ids := make([]ThreadID, threads)
		for k := range ids {
			k := k
			ids[k] = rt.Register(fmt.Sprintf("t%d", k), func(tg Trigger) { got[k] = append(got[k], tg.Index) })
			if err := rt.Attach(ids[k], in, k*span, (k+1)*span); err != nil {
				t.Fatal(err)
			}
		}
		vs := make([]mem.Word, span/2)
		for r := 1; r <= rounds; r++ {
			for i := range vs {
				vs[i] = mem.Word(r)
			}
			// Lower halves batched, thread after thread (long runs); upper
			// halves scalar, round-robin over the threads (runs of one).
			// Either way thread k's enqueue order is its words ascending.
			others.queue()
			for k := range ids {
				in.TStoreBatch(k*span, vs)
			}
			for i := span / 2; i < span; i++ {
				for k := range ids {
					in.TStore(k*span+i, mem.Word(r))
				}
			}
			within(t, "Wait", func() {
				for _, id := range ids {
					rt.Wait(id)
				}
				others.wait()
			})
			for k := range ids {
				if len(got[k]) != span {
					t.Fatalf("round %d: thread %d ran %d instances, want %d (exactly once each)\n got %v", r, k, len(got[k]), span, got[k])
				}
				for i, idx := range got[k] {
					if idx != k*span+i {
						t.Fatalf("round %d: thread %d instance %d ran word %d, enqueue order says %d\n got %v", r, k, i, idx, k*span+i, got[k])
					}
				}
				got[k] = got[k][:0]
			}
		}
		st := rt.Stats()
		if want := int64(threads*span*rounds) + others.wait(); st.Executed != want || st.Squashed != 0 || st.Overflowed != 0 {
			t.Fatalf("Executed %d Squashed %d Overflowed %d, want %d 0 0", st.Executed, st.Squashed, st.Overflowed, want)
		}
		assertIdentities(t, rt, "order")
	})
}

// TestClaimPanicMidRun: a body that panics in the middle of a claimed run is
// a failed run for that entry only; the rest of the run still executes, and
// the thread is idle after it wherever the panic fell.
func TestClaimPanicMidRun(t *testing.T) {
	claimGeometries(t, func(t *testing.T, workers, sharers int) {
		const span = 12
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: workers})
		others := crowd(t, rt, sharers)
		in := rt.NewRegion("in", span)
		var bad atomic.Int64
		var claimed atomic.Int64
		var th ThreadID
		th = rt.Register("fragile", func(tg Trigger) {
			if tg.Index == 0 {
				claimed.Store(int64(pendingOf(rt, th)))
			}
			if int64(tg.Index) == bad.Load() {
				panic("support thread fault")
			}
		})
		if err := rt.Attach(th, in, 0, span); err != nil {
			t.Fatal(err)
		}
		vs := make([]mem.Word, span)
		for round, c := range []struct{ bad int64 }{{5}, {span - 1}} {
			bad.Store(c.bad)
			claimed.Store(-1)
			for i := range vs {
				vs[i] = mem.Word(round + 1)
			}
			others.queue()
			in.TStoreBatch(0, vs)
			var crowdRan int64
			within(t, "Wait", func() { rt.Wait(th); crowdRan = others.wait() })
			if got := claimed.Load(); got != 0 {
				t.Fatalf("round %d: entry 1 of the run saw %d entries of the batch of %d still on the ring, want the whole batch claimed", round, got, span)
			}
			st := rt.Stats()
			if want := int64((round+1)*(span-1)) + crowdRan; st.FailedRuns != int64(round+1) || st.Executed != want {
				t.Fatalf("round %d: FailedRuns %d Executed %d, want %d and %d", round, st.FailedRuns, st.Executed, round+1, want)
			}
			if got := rt.Status(th); got != queue.StatusIdle {
				t.Fatalf("round %d (panic at entry %d of %d): Status = %v, want idle", round, c.bad+1, span, got)
			}
		}
		assertIdentities(t, rt, "panic")
	})
}

// TestClaimCancelMidRun: a Cancel landing while entry 1 of a claimed run is
// in its body stops the run — no further body of the thread starts — and
// Namespace.Close returns only once the run has ended.
func TestClaimCancelMidRun(t *testing.T) {
	claimGeometries(t, func(t *testing.T, workers, sharers int) {
		const span = 10
		rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: workers})
		others := crowd(t, rt, sharers)
		ns := rt.NewNamespace("tenant")
		in, err := ns.Region("in", span)
		if err != nil {
			t.Fatal(err)
		}
		started, release := make(chan struct{}), newGate(t)
		var runs, ended atomic.Int64
		th, err := ns.Register("slow", func(tg Trigger) {
			if runs.Add(1) == 1 {
				close(started)
				<-release.ch
			}
			ended.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.Attach(th, in, 0, span); err != nil {
			t.Fatal(err)
		}
		vs := make([]mem.Word, span)
		for i := range vs {
			vs[i] = 1
		}
		others.queue()
		in.TStoreBatch(0, vs)
		await(t, "entry 1 to start", started)
		if got := pendingOf(rt, th); got != 0 {
			t.Fatalf("%d of the batch's %d entries are still on the ring while entry 1 runs, want the whole batch claimed", got, span)
		}

		closed := make(chan struct{})
		go func() {
			defer close(closed)
			ns.Close() // Cancel, then wait for the in-flight run
		}()
		// Close cannot finish while the run's first body is blocked: the
		// token spans the run. Give it a moment to prove it does not.
		select {
		case <-closed:
			t.Fatal("Namespace.Close returned while a claimed run was still in a body")
		case <-time.After(50 * time.Millisecond):
		}
		// Wait for the Cancel itself (it does not block on the run).
		within(t, "the Cancel", func() {
			for rt.Stats().Cancels == 0 {
				runtime.Gosched()
			}
		})
		release.open()
		await(t, "Namespace.Close", closed)
		if r, e := runs.Load(), ended.Load(); r != 1 || e != 1 {
			t.Fatalf("%d bodies started and %d ended across a Cancel mid-run, want 1 and 1", r, e)
		}
		var crowdRan int64
		within(t, "the bystanders", func() { crowdRan = others.wait() })
		st := rt.Stats()
		if st.Executed != 1+crowdRan || st.FailedRuns != 0 {
			t.Fatalf("Executed %d FailedRuns %d, want %d and 0 (the unstarted rest is cancelled work)", st.Executed, st.FailedRuns, 1+crowdRan)
		}
		if got := tokenOf(rt, th); got != 0 {
			t.Fatalf("the run token still counts %d instances after the run settled", got)
		}
		if qc := queueCounters(rt); qc.Dequeued != span+crowdRan || qc.SquashedOut != 0 {
			t.Fatalf("queue counters %+v: the claimed run had left the queue before the Cancel", qc)
		}
		assertIdentities(t, rt, "cancel")
		within(t, "Barrier", rt.Barrier)
	})
}

// TestRestoreToClaimedAddressEnqueuesAgain: a claimed entry has left the ring
// and cleared its pending bit, whether or not its body has started, so a
// changing store to a claimed-but-unstarted address is admitted as one more
// instance instead of squashing against the claim — the at most claimMax-1
// redundant instances per claim DESIGN.md prices. A second re-store of the
// same word squashes against the first.
func TestRestoreToClaimedAddressEnqueuesAgain(t *testing.T) {
	const span = 4
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1})
	in := rt.NewRegion("in", span)
	started, release := make(chan struct{}), newGate(t)
	var runs atomic.Int64
	th := rt.Register("slow", func(Trigger) {
		if runs.Add(1) == 1 {
			close(started)
			<-release.ch
		}
	})
	if err := rt.Attach(th, in, 0, span); err != nil {
		t.Fatal(err)
	}
	in.TStoreBatch(0, []mem.Word{1, 1, 1, 1})
	await(t, "entry 1 to start", started)
	if got := pendingOf(rt, th); got != 0 {
		t.Fatalf("%d of the batch's %d entries are still on the ring while entry 1 runs, want the whole batch claimed", got, span)
	}
	in.TStore(2, 2) // word 2 is claimed, its body not yet started
	in.TStore(2, 3)
	if st := rt.Stats(); st.Enqueued != span+1 || st.Squashed != 1 {
		t.Fatalf("Enqueued %d Squashed %d, want %d and 1: the claim cleared word 2's bit and the first re-store set it again",
			st.Enqueued, st.Squashed, span+1)
	}
	release.open()
	within(t, "Wait", func() { rt.Wait(th) })
	if got := runs.Load(); got != span+1 {
		t.Fatalf("%d bodies ran, want %d", got, span+1)
	}
	assertIdentities(t, rt, "re-store to a claimed address")
}

// TestClaimLeavesOtherThreadsRunnable: a claim takes one thread's token,
// never two. With two workers, thread B's entries — interleaved
// with A's in the queue — all run while A's first body is blocked, whether
// B's entries sit behind A's run or between A's entries.
func TestClaimLeavesOtherThreadsRunnable(t *testing.T) {
	for _, interleaved := range []bool{false, true} {
		interleaved := interleaved
		t.Run(fmt.Sprintf("interleaved=%v", interleaved), func(t *testing.T) {
			const span = 8
			rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
			in := rt.NewRegion("in", 2*span)
			bDone := make(chan struct{})
			var aRuns, bRuns atomic.Int64
			a := rt.Register("a", func(Trigger) {
				if aRuns.Add(1) == 1 {
					<-bDone // A's run is long: it outlasts all of B
				}
			})
			b := rt.Register("b", func(Trigger) {
				if bRuns.Add(1) == span {
					close(bDone)
				}
			})
			if err := rt.Attach(a, in, 0, span); err != nil {
				t.Fatal(err)
			}
			if err := rt.Attach(b, in, span, 2*span); err != nil {
				t.Fatal(err)
			}
			if interleaved {
				for i := 0; i < span; i++ {
					in.TStore(i, 1)
					in.TStore(span+i, 1)
				}
			} else {
				vs := make([]mem.Word, 2*span)
				for i := range vs {
					vs[i] = 1
				}
				in.TStoreBatch(0, vs)
			}
			within(t, "Wait on both threads", func() {
				rt.Wait(b)
				rt.Wait(a)
			})
			if aRuns.Load() != span || bRuns.Load() != span {
				t.Fatalf("a ran %d, b ran %d, want %d each", aRuns.Load(), bRuns.Load(), span)
			}
			assertIdentities(t, rt, "two threads")
		})
	}
}

// TestNoLostWakeup is the idle worker's soak: producers that each loop {one
// changing TStore; Wait} (and the same with Barrier) make a worker go idle
// and be woken once per iteration, so a wakeup lost between "found nothing"
// and "asleep" hangs the loop and trips the deadline.
func TestNoLostWakeup(t *testing.T) {
	const producers, iters = 3, 50_000
	for _, join := range []string{"wait", "barrier"} {
		for _, workers := range []int{1, 2, 4} {
			join, workers := join, workers
			t.Run(fmt.Sprintf("%s_w%d", join, workers), func(t *testing.T) {
				rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: workers})
				in := rt.NewRegion("in", producers)
				var runs atomic.Int64
				ids := make([]ThreadID, producers)
				for p := range ids {
					ids[p] = rt.Register(fmt.Sprintf("p%d", p), func(Trigger) { runs.Add(1) })
					if err := rt.Attach(ids[p], in, p, p+1); err != nil {
						t.Fatal(err)
					}
				}
				within(t, "producers", func() {
					var wg sync.WaitGroup
					for p := range ids {
						wg.Add(1)
						go func(p int) {
							defer wg.Done()
							for i := 1; i <= iters; i++ {
								in.TStore(p, mem.Word(i))
								if join == "wait" {
									rt.Wait(ids[p])
								} else {
									rt.Barrier()
								}
							}
						}(p)
					}
					wg.Wait()
				})
				if got := runs.Load(); got != producers*iters {
					t.Fatalf("%d instances ran, want %d: every store was followed by its own sync", got, producers*iters)
				}
				assertIdentities(t, rt, "lost wakeup")
			})
		}
	}
}

// TestCloseRacesParkingWorker: Close must reach a worker whether it is
// claiming, running a body or asleep on the idle list: the seal and the
// idle list's wakeup share the dispatch lock with the worker's look, and a
// worker exits at the first look after the seal that finds the runtime
// quiescent.
func TestCloseRacesParkingWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	within(t, "open/close churn", func() {
		for i := 0; i < 2000; i++ {
			rt, err := New(Config{Backend: BackendImmediate, Workers: 1 + i%3})
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				// A store first: the worker is somewhere between its wakeup
				// and its next park when Close lands.
				in := rt.NewRegion("in", 1)
				th := rt.Register("t", func(Trigger) {})
				if err := rt.Attach(th, in, 0, 1); err != nil {
					t.Error(err)
				}
				in.TStore(0, 1)
			}
			rt.Close()
		}
	})
	expectGoroutines(t, base, "after open/close churn")
}

// TestInlineOverflowWaitsOutClaimedRun: with a capacity-1 queue, a store
// that overflows while a worker's claimed run holds the thread's token is
// marked, and the worker sweeps it before it lets the token go, although it
// goes straight on to its next claim; Wait waits out both.
func TestInlineOverflowWaitsOutClaimedRun(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1, QueueCapacity: 1})
	in := rt.NewRegion("in", 3)
	started, release := make(chan struct{}), newGate(t)
	var runs atomic.Int64
	th := rt.Register("slow", func(Trigger) {
		if runs.Add(1) == 1 {
			close(started)
			<-release.ch
		}
	})
	if err := rt.Attach(th, in, 0, 3); err != nil {
		t.Fatal(err)
	}
	in.TStore(0, 1) // claimed; its body blocks
	await(t, "the claimed body", started)
	in.TStore(1, 1) // fills the one slot the claim freed
	stored := make(chan struct{})
	go func() {
		defer close(stored)
		in.TStore(2, 1) // overflows onto the held token: marked
	}()
	within(t, "the overflow", func() {
		for rt.Stats().Overflowed == 0 {
			runtime.Gosched()
		}
	})
	release.open()
	await(t, "the overflowing store", stored)
	within(t, "Wait", func() { rt.Wait(th) })
	st := rt.Stats()
	if runs.Load() != 3 || st.Executed != 2 || st.InlineRuns != 1 {
		t.Fatalf("ran %d (Executed %d, InlineRuns %d), want 3 (2, 1)", runs.Load(), st.Executed, st.InlineRuns)
	}
	assertIdentities(t, rt, "inline overflow")
}

// TestInlineGroupsKeepOrderAndCounters: one changing TStoreBatch over ten
// words that two threads cover in interleaved ranges (a a b b a a b b a a),
// at QueueCapacity 1, enqueues its first trigger and overflows the other
// nine, so the writer's inline list alternates threads: a1 | b2 b3 | a4 a5 |
// b6 b7 | a8 a9. runInline runs each group of one thread's consecutive
// entries under one bracket; the bodies still run in admission order — on
// the immediate backend each thread's do, since a group whose token the
// worker took meanwhile is marked for the worker — and the counters read as
// one run per entry. A body that Cancels its own thread (a4) stops the rest
// of its group (a5) and its later groups (a8 a9): all three count Dropped,
// as a per-entry attachment check counts them.
//
// The held input overflows a onto a token the worker holds: its one worker
// sits inside a's body for word 0 when the batch lands, so a's entries are
// marked while b's run inline. The batch must return before that body is
// released; a re-store of a marked word squashes; the worker sweeps the
// marks before Wait(a) returns, or a Cancel before the sweep drops them.
//
// The help inputs queue a backlog of thread t while the one worker sits in
// a plug body of another thread (helpingJoin).
func TestInlineGroupsKeepOrderAndCounters(t *testing.T) {
	for _, in := range []struct {
		cfg     Config
		held    bool
		backlog int
	}{
		{cfg: Config{Backend: BackendDeferred, QueueCapacity: 1}},
		{cfg: Config{Backend: BackendImmediate, Workers: 1, QueueCapacity: 1}},
		{cfg: Config{Backend: BackendSeeded, SchedSeed: 7, QueueCapacity: 1}},
		{cfg: Config{Backend: BackendImmediate, Workers: 1, QueueCapacity: 1}, held: true},
		{cfg: Config{Backend: BackendImmediate, Workers: 1}, backlog: claimMax},
		{cfg: Config{Backend: BackendImmediate, Workers: 1}, backlog: claimMax + 1},
	} {
		for _, cancelAt := range []int{-1, 4} {
			cfg, held, backlog, cancelAt := in.cfg, in.held, in.backlog, cancelAt
			name := cfg.Backend.String() + "/no_cancel"
			switch {
			case backlog > 0 && cancelAt >= 0:
				continue
			case backlog > 0:
				name = fmt.Sprintf("immediate/help/backlog_%d", backlog)
			case held && cancelAt >= 0:
				name = "immediate/held/cancel_before_sweep"
			case held:
				name = "immediate/held/no_cancel"
			case cancelAt >= 0:
				name = fmt.Sprintf("%s/cancel_at_%d", cfg.Backend, cancelAt)
			}
			t.Run(name, func(t *testing.T) {
				rt := newRuntime(t, cfg)
				if backlog > 0 {
					helpingJoin(t, rt, backlog)
					return
				}
				const words = 10
				in := rt.NewRegion("in", words)
				entered, release := make(chan struct{}, 2), newGate(t)
				var mu sync.Mutex
				var ran []int // indices of the inline bodies, in run order
				var a ThreadID
				body := func(tg Trigger) {
					if tg.Index == 0 { // the one queued entry, maybe on a worker
						if held {
							entered <- struct{}{}
							<-release.ch
						}
						return
					}
					mu.Lock()
					ran = append(ran, tg.Index)
					mu.Unlock()
					if tg.Index == cancelAt && !held {
						rt.Cancel(a)
					}
				}
				a = rt.Register("a", body)
				b := rt.Register("b", body)
				for lo := 0; lo < words; lo += 4 {
					if err := rt.Attach(a, in, lo, lo+2); err != nil {
						t.Fatal(err)
					}
				}
				for lo := 2; lo < words; lo += 4 {
					if err := rt.Attach(b, in, lo, lo+2); err != nil {
						t.Fatal(err)
					}
				}
				vs := make([]mem.Word, words)
				for i := range vs {
					vs[i] = 1
				}
				if !held {
					within(t, "the overflowing batch", func() { in.TStoreBatch(0, vs) })
					within(t, "Barrier", rt.Barrier)

					want, inline, dropped := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(9), int64(0)
					if cancelAt >= 0 {
						want, inline, dropped = []int{1, 2, 3, 4, 6, 7}, 6, 3
					}
					mu.Lock()
					defer mu.Unlock()
					got, wantOrder := fmt.Sprint(ran), fmt.Sprint(want)
					if cfg.Backend == BackendImmediate {
						got, wantOrder = fmt.Sprint(byThread(ran)), fmt.Sprint(byThread(want))
					}
					if got != wantOrder {
						t.Fatalf("inline bodies ran %s, want %s", got, wantOrder)
					}
					st := rt.Stats()
					if st.Fired != words || st.Enqueued != 1 || st.Overflowed != 9 || st.InlineRuns != inline || st.Dropped != dropped {
						t.Fatalf("Fired %d Enqueued %d Overflowed %d InlineRuns %d Dropped %d, want %d 1 9 %d %d",
							st.Fired, st.Enqueued, st.Overflowed, st.InlineRuns, st.Dropped, words, inline, dropped)
					}
					assertIdentities(t, rt, "inline groups")
					return
				}

				in.TStore(0, 2) // the worker claims it and stays in a's body
				await(t, "a's body", entered)
				// The watchdog is the liveness check: a writer must never wait
				// for a token another goroutine holds.
				within(t, "the batch overflowing onto a held token", func() { in.TStoreBatch(0, vs) })
				mu.Lock()
				if fmt.Sprint(ran) != "[2 3 6 7]" {
					t.Errorf("before the release ran %v, want b's inline groups [2 3 6 7] only", ran)
				}
				mu.Unlock()
				if st := rt.Stats(); st.Overflowed != 9 || st.InlineRuns != 4 || rt.Status(a) != queue.StatusRunning {
					t.Fatalf("Overflowed %d InlineRuns %d Status(a) %v, want 9 4 running: a's five entries are marks", st.Overflowed, st.InlineRuns, rt.Status(a))
				}
				in.TStore(1, 5) // word 1's mark holds its pending bit
				// Overflowed = InlineRuns + Dropped holds at quiescence; until
				// the sweep the five marks are the difference.
				if st := rt.Stats(); st.Squashed != 1 || st.Fired != st.Enqueued+st.Squashed+st.Overflowed || st.Overflowed != st.InlineRuns+st.Dropped+5 {
					t.Fatalf("a re-store of a marked word: Fired %d Enqueued %d Squashed %d Overflowed %d InlineRuns %d Dropped %d, want Squashed 1 and five marks in flight",
						st.Fired, st.Enqueued, st.Squashed, st.Overflowed, st.InlineRuns, st.Dropped)
				}
				want, inline, dropped := "[2 3 6 7 1 4 5 8 9]", int64(9), int64(0)
				if cancelAt >= 0 {
					rt.Cancel(a) // before the sweep
					want, inline, dropped = "[2 3 6 7]", 4, 5
				}
				release.open()
				within(t, "Wait(a)", func() { rt.Wait(a) })
				mu.Lock()
				defer mu.Unlock()
				if fmt.Sprint(ran) != want {
					t.Fatalf("after Wait(a) ran %v, want %s", ran, want)
				}
				st := rt.Stats()
				if st.Fired != words+2 || st.Enqueued != 2 || st.Squashed != 1 || st.Overflowed != 9 || st.InlineRuns != inline || st.Dropped != dropped {
					t.Fatalf("Fired %d Enqueued %d Squashed %d Overflowed %d InlineRuns %d Dropped %d, want %d 2 1 9 %d %d",
						st.Fired, st.Enqueued, st.Squashed, st.Overflowed, st.InlineRuns, st.Dropped, words+2, inline, dropped)
				}
				within(t, "Barrier", rt.Barrier)
				assertIdentities(t, rt, "marks swept")
			})
		}
	}
}

// helpingJoin is TestInlineGroupsKeepOrderAndCounters' help input: the one
// worker sits in a plug body of thread u while backlog entries of thread t
// are queued. With one claim's worth (claimMax) Wait(t) runs them itself
// before the plug opens, on the joiner's goroutine, as queued instances
// (Executed); with one more it sleeps until the worker, released, has run
// them all.
func helpingJoin(t *testing.T, rt *Runtime, backlog int) {
	in := rt.NewRegion("in", 1+backlog)
	entered, plug := make(chan struct{}, 1), newGate(t)
	u := rt.Register("u", func(Trigger) {
		entered <- struct{}{}
		<-plug.ch
	})
	var mu sync.Mutex
	var ran []uint64 // the goroutine each of t's bodies ran on
	tid := rt.Register("t", func(Trigger) {
		mu.Lock()
		ran = append(ran, goid())
		mu.Unlock()
	})
	if err := rt.Attach(u, in, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Attach(tid, in, 1, 1+backlog); err != nil {
		t.Fatal(err)
	}
	in.TStore(0, 1)
	await(t, "u's plug body", entered)
	vs := make([]mem.Word, backlog)
	for i := range vs {
		vs[i] = 1
	}
	in.TStoreBatch(1, vs)
	var joiner uint64
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		joiner = goid()
		rt.Wait(tid)
	}()
	ranOn := func() (on, off int) {
		mu.Lock()
		defer mu.Unlock()
		for _, g := range ran {
			if g == joiner {
				on++
			} else {
				off++
			}
		}
		return on, off
	}
	if backlog <= claimMax {
		await(t, "Wait(t) beside the plugged worker", joined)
		if on, off := ranOn(); on != backlog || off != 0 {
			t.Fatalf("t's bodies ran %d on the joiner and %d elsewhere, want all %d on the joiner", on, off, backlog)
		}
		// u's run is still in flight, so the queue is not quiescent: the
		// two counter identities hold all the same.
		if st := rt.Stats(); st.Executed != int64(backlog) || st.Fired != st.Enqueued+st.Squashed+st.Overflowed || st.Overflowed != st.InlineRuns+st.Dropped {
			t.Fatalf("after the helped join: Executed %d (want %d) Fired %d Enqueued %d Squashed %d Overflowed %d InlineRuns %d Dropped %d",
				st.Executed, backlog, st.Fired, st.Enqueued, st.Squashed, st.Overflowed, st.InlineRuns, st.Dropped)
		}
	} else {
		select {
		case <-joined:
			t.Fatalf("Wait(t) returned with %d entries of t queued and the worker plugged", backlog)
		case <-time.After(50 * time.Millisecond):
		}
		if on, off := ranOn(); on+off != 0 {
			t.Fatalf("%d of t's bodies ran while the worker was plugged, want none", on+off)
		}
		plug.open()
		await(t, "Wait(t) once the plug opens", joined)
		if on, off := ranOn(); on != 0 || off != backlog {
			t.Fatalf("t's bodies ran %d on the joiner and %d on the worker, want all %d on the worker", on, off, backlog)
		}
	}
	plug.open()
	within(t, "Barrier", rt.Barrier)
	if st := rt.Stats(); st.Executed != int64(backlog+1) {
		t.Fatalf("Executed %d, want %d: t's backlog and u's plug", st.Executed, backlog+1)
	}
	assertIdentities(t, rt, "plug released")
}

// byThread splits the interleaved test's body indices by thread — a's words
// are 0, 1, 4, 5, 8, 9 (index mod 4 below 2), b's the rest — keeping each
// thread's run order.
func byThread(ran []int) [2][]int {
	var out [2][]int
	for _, i := range ran {
		out[i%4/2] = append(out[i%4/2], i)
	}
	return out
}

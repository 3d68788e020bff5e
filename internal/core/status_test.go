package core

import (
	"testing"

	"dtt/internal/queue"
)

// statusRig is one runtime with a thread under test (th, armed on words
// [0, 4) of in) whose body the case swaps between stores, and — on the
// immediate backend — a blocker thread that can pin the only worker so
// triggers of th stay pending until the case lets go. On the deferred
// backend nothing runs before Wait, so hold and unhold do nothing.
type statusRig struct {
	t  *testing.T
	rt *Runtime
	in *Region
	th ThreadID
	// body is what the next instance of th does. The main goroutine sets it
	// before the store that triggers the instance; the dispatch lock the
	// store and the dispatch both take orders the two.
	body func(Trigger)

	holds            uint64
	started, release chan struct{}
}

func newStatusRig(t *testing.T, backend Backend, mut func(*Config)) *statusRig {
	t.Helper()
	cfg := Config{Backend: backend, Workers: 1}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	r := &statusRig{t: t, rt: rt, in: rt.NewRegion("in", 5), body: func(Trigger) {}}
	t.Cleanup(r.unhold) // before Close, even when a case fails holding the worker
	r.th = rt.Register("under-test", func(tg Trigger) { r.body(tg) })
	// The blocker's entry has left the queue by the time its body holds the
	// worker, so a capacity-1 queue is th's alone while the worker is held.
	blocker := rt.Register("blocker", func(Trigger) {
		// Both fields are read before the close that lets hold return, so
		// the main goroutine's later writes to them are ordered after.
		started, release := r.started, r.release
		close(started)
		<-release
	})
	for _, a := range []struct {
		th     ThreadID
		lo, hi int
	}{{r.th, 0, 4}, {blocker, 4, 5}} {
		if err := rt.Attach(a.th, r.in, a.lo, a.hi); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	return r
}

// hold parks the immediate backend's only worker inside the blocker's body.
func (r *statusRig) hold() {
	if r.rt.cfg.Backend != BackendImmediate {
		return
	}
	r.holds++
	r.started, r.release = make(chan struct{}), make(chan struct{})
	r.in.TStore(4, r.holds)
	await(r.t, "blocker body start", r.started)
}

func (r *statusRig) unhold() {
	if r.release != nil {
		close(r.release)
		r.release = nil
	}
}

func (r *statusRig) wait() {
	r.t.Helper()
	within(r.t, "Wait", func() { r.rt.Wait(r.th) })
}

func (r *statusRig) expect(want queue.Status, when string) {
	r.t.Helper()
	if got := r.rt.Status(r.th); got != want {
		r.t.Fatalf("%s: Status = %v, want %v", when, got, want)
	}
}

// statusRow is a thread's row of the status table as Wait reads it: the
// ring's pending count and the run token.
type statusRow struct{ pending, running int }

func (r *statusRig) row(th ThreadID) statusRow {
	d := r.rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	return statusRow{d.tq.PendingCount(th), r.rt.threadsSnap()[th].running}
}

func (r *statusRig) expectRow(th ThreadID, want statusRow, when string) {
	r.t.Helper()
	if got := r.row(th); got != want {
		r.t.Fatalf("%s: row = %+v, want %+v", when, got, want)
	}
}

func (r *statusRig) reattach() {
	r.t.Helper()
	if err := r.rt.Attach(r.th, r.in, 0, 4); err != nil {
		r.t.Fatalf("re-Attach: %v", err)
	}
}

// tinyQueue makes a thread's second pending trigger — at another address,
// so it is not squashed — overflow and run inline.
func tinyQueue(c *Config) { c.QueueCapacity = 1 }

// TestStatusLifecycle walks a thread's row of the status table — the ring's
// pending count and the run token, the two things Wait reads — through every
// transition, reading it the way programs do (Status, Stats) and, where the
// public surface cannot tell two states apart, from the row itself. Status
// is Running whenever an instance holds the token, an inline overflow run
// included, and a failed instance leaves nothing behind but its count.
func TestStatusLifecycle(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*Config)
		run  func(t *testing.T, r *statusRig)
	}{
		{name: "lifecycle", run: func(t *testing.T, r *statusRig) {
			r.expect(queue.StatusIdle, "fresh thread")
			r.hold()
			inside := queue.StatusIdle
			r.body = func(Trigger) { inside = r.rt.Status(r.th) }
			r.in.TStore(0, 1)
			r.expect(queue.StatusPending, "queued, not started")
			r.expectRow(r.th, statusRow{pending: 1}, "queued, not started")
			r.unhold()
			r.wait()
			if inside != queue.StatusRunning {
				t.Fatalf("Status read from inside the body = %v, want running", inside)
			}
			r.expect(queue.StatusIdle, "after the instance")
			r.expectRow(r.th, statusRow{}, "after the instance")
		}},
		{name: "running_dominates_pending", run: func(t *testing.T, r *statusRig) {
			var inside queue.Status
			var row statusRow
			runs := 0
			r.body = func(tg Trigger) {
				runs++
				if tg.Index == 0 {
					r.in.TStore(1, 7) // queues behind the instance that stores it
					inside, row = r.rt.Status(r.th), r.row(r.th)
				}
			}
			r.in.TStore(0, 1)
			r.wait()
			if inside != queue.StatusRunning || row != (statusRow{pending: 1, running: 1}) {
				t.Fatalf("Status = %v with row %+v, want running over 1 pending + 1 running", inside, row)
			}
			r.expect(queue.StatusIdle, "after both instances")
			if runs != 2 {
				t.Fatalf("%d instances ran, want 2", runs)
			}
		}},
		{name: "failed_then_cleared", run: func(t *testing.T, r *statusRig) {
			r.body = func(Trigger) { panic("support thread fault") }
			r.in.TStore(0, 1)
			r.wait() // a failed thread is quiet: Wait must return
			r.expect(queue.StatusIdle, "after a panicking instance")
			r.expectRow(r.th, statusRow{}, "after a panicking instance")
			r.body = func(Trigger) {}
			r.in.TStore(0, 2)
			r.wait()
			r.expect(queue.StatusIdle, "after a clean instance")
			if st := r.rt.Stats(); st.Executed != 1 || st.FailedRuns != 1 {
				t.Fatalf("Stats Executed %d FailedRuns %d, want 1 and 1", st.Executed, st.FailedRuns)
			}
		}},
		{name: "inline_runs", cfg: tinyQueue, run: func(t *testing.T, r *statusRig) {
			r.hold()
			inside := queue.StatusIdle
			r.body = func(Trigger) {
				inside = r.rt.Status(r.th)
				panic("inline overflow fault")
			}
			r.in.TStore(0, 1) // queued
			r.in.TStore(1, 2) // overflows: runs here, now, and panics
			if inside != queue.StatusRunning {
				t.Fatalf("Status read from inside an inline overflow body = %v, want running", inside)
			}
			r.expect(queue.StatusPending, "inline run done, first trigger still queued")
			r.expectRow(r.th, statusRow{pending: 1}, "the inline run returned its token")
			r.rt.Cancel(r.th)
			r.expect(queue.StatusIdle, "after a failed inline run")

			r.reattach()
			r.body = func(Trigger) {}
			r.in.TStore(0, 3)
			r.in.TStore(1, 4) // overflows: runs here and succeeds
			r.rt.Cancel(r.th)
			r.expect(queue.StatusIdle, "after a clean inline run")
			if st := r.rt.Stats(); st.InlineRuns != 2 || st.FailedRuns != 1 || st.Executed != 0 {
				t.Fatalf("Stats InlineRuns %d FailedRuns %d Executed %d, want 2, 1 and 0", st.InlineRuns, st.FailedRuns, st.Executed)
			}

			r.reattach()
			r.unhold()
			r.in.TStore(0, 5)
			r.wait()
			r.expect(queue.StatusIdle, "after a queued instance")
			r.expectRow(r.th, statusRow{}, "after the queued instance")
		}},
		{name: "cancel_pending", run: func(t *testing.T, r *statusRig) {
			r.hold()
			for i := 0; i < 3; i++ {
				r.in.TStore(i, 1)
			}
			r.expect(queue.StatusPending, "three queued")
			r.rt.Cancel(r.th)
			r.expect(queue.StatusIdle, "cancelled")
			r.expectRow(r.th, statusRow{}, "cancelled")
			r.unhold()
			within(t, "Barrier", r.rt.Barrier)
			if qc := r.rt.QueueCounters(); qc.SquashedOut != 3 {
				t.Fatalf("SquashedOut = %d, want 3", qc.SquashedOut)
			}
		}},
		{name: "cancel_mid_run", run: func(t *testing.T, r *statusRig) {
			r.hold()
			runs := 0
			r.body = func(Trigger) {
				runs++
				r.rt.Cancel(r.th)
			}
			for i := 0; i < 3; i++ {
				r.in.TStore(i, 1)
			}
			r.unhold()
			r.wait()
			// The instances behind the cancelling one were squashed in the
			// queue or dropped from the worker's claim: cancelled work either
			// way, neither executed nor failed.
			r.expect(queue.StatusIdle, "after the cancelling instance")
			r.expectRow(r.th, statusRow{}, "after the cancelling instance")
			if st := r.rt.Stats(); runs != 1 || st.FailedRuns != 0 {
				t.Fatalf("%d instances ran and FailedRuns is %d, want 1 and 0", runs, st.FailedRuns)
			}
		}},
		{name: "recycled_id_starts_fresh", run: func(t *testing.T, r *statusRig) {
			ns := r.rt.NewNamespace("tenant")
			reg, err := ns.Region("r", 1)
			if err != nil {
				t.Fatal(err)
			}
			old, err := ns.Register("t", func(Trigger) { panic("support thread fault") })
			if err != nil {
				t.Fatal(err)
			}
			if err := ns.Attach(old, reg, 0, 1); err != nil {
				t.Fatal(err)
			}
			reg.TStore(0, 1)
			within(t, "Wait", func() { ns.Wait(old) })
			ns.Close() // retires the thread; its id goes on the free list
			runs := 0
			next := r.rt.Register("next-owner", func(Trigger) { runs++ })
			if next != old {
				t.Fatalf("Register reused id %d, want the retired %d", next, old)
			}
			r.expectRow(next, statusRow{}, "recycled id")
			fresh := r.rt.NewRegion("fresh", 1)
			if err := r.rt.Attach(next, fresh, 0, 1); err != nil {
				t.Fatal(err)
			}
			fresh.TStore(0, 1)
			within(t, "Wait", func() { r.rt.Wait(next) })
			if got := r.rt.Status(next); got != queue.StatusIdle || runs != 1 {
				t.Fatalf("recycled id: Status %v after %d runs of the new body, want idle and 1", got, runs)
			}
			if st := r.rt.Stats(); st.FailedRuns != 1 {
				t.Fatalf("FailedRuns %d, want 1: the retired thread's one instance", st.FailedRuns)
			}
		}},
		{name: "unknown_thread", run: func(t *testing.T, r *statusRig) {
			for _, id := range []ThreadID{-1, 99} {
				if got := r.rt.Status(id); got != queue.StatusIdle {
					t.Fatalf("thread %d was never registered: Status %v, want idle", id, got)
				}
			}
		}},
		{name: "settling_more_than_dispatched_panics", run: func(t *testing.T, r *statusRig) {
			d := r.rt.d
			d.mu.Lock()
			defer d.mu.Unlock()
			defer func() { // busy counts nothing in flight
				if recover() == nil {
					t.Fatal("endRunLocked settled an entry busy did not count without panicking")
				}
			}()
			r.rt.endRunLocked(r.th, true, 1, true)
		}},
	}
	for _, backend := range []Backend{BackendDeferred, BackendImmediate} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					r := newStatusRig(t, backend, tc.cfg)
					tc.run(t, r)
					r.unhold()
					if !t.Failed() {
						within(t, "final Barrier", r.rt.Barrier)
						assertQueueConservation(t, r.rt, tc.name)
					}
				})
			}
		})
	}
}

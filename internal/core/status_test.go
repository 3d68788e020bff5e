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

// statusRow is a thread's status-table row as the runtime stores it.
type statusRow struct {
	pending, dispatched int
	executed, failed    int64
}

func (r *statusRig) row(th ThreadID) statusRow {
	d := r.rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	te := r.rt.threadsSnap()[th]
	return statusRow{d.tq.PendingCount(th), te.dispatched, te.executed, te.failed}
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

// TestStatusLifecycle walks a thread's status row — pending (the ring's
// count), dispatched, executed, failed, lastFailed, all kept in its
// threadEntry — through every transition, reading it the way programs do
// (Status, Executed, Stats) and, where the public surface cannot tell two
// states apart, from the row itself.
func TestStatusLifecycle(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*Config)
		run  func(t *testing.T, r *statusRig)
		// corrupts marks the case that breaks the row on purpose; the
		// closing conservation check would only re-report it.
		corrupts bool
	}{
		{name: "lifecycle", run: func(t *testing.T, r *statusRig) {
			r.expect(queue.StatusIdle, "fresh thread")
			r.hold()
			var inside queue.Status
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
			if got := r.rt.Executed(r.th); got != 1 {
				t.Fatalf("Executed = %d, want 1", got)
			}
		}},
		{name: "running_dominates_pending", run: func(t *testing.T, r *statusRig) {
			var inside queue.Status
			var row statusRow
			r.body = func(tg Trigger) {
				if tg.Index == 0 {
					r.in.TStore(1, 7) // queues behind the instance that stores it
					inside, row = r.rt.Status(r.th), r.row(r.th)
				}
			}
			r.in.TStore(0, 1)
			r.wait()
			if inside != queue.StatusRunning || row.pending != 1 || row.dispatched != 1 {
				t.Fatalf("Status = %v with row %+v, want running over 1 pending + 1 dispatched", inside, row)
			}
			r.expect(queue.StatusIdle, "after both instances")
			r.expectRow(r.th, statusRow{executed: 2}, "after both instances")
		}},
		{name: "failed_then_cleared", run: func(t *testing.T, r *statusRig) {
			r.body = func(Trigger) { panic("support thread fault") }
			r.in.TStore(0, 1)
			r.wait() // a failed thread is quiet: Wait must return
			r.expect(queue.StatusFailed, "after a panicking instance")
			r.expectRow(r.th, statusRow{failed: 1}, "after a panicking instance")
			r.body = func(Trigger) {}
			r.in.TStore(0, 2)
			r.wait()
			r.expect(queue.StatusIdle, "after a clean instance")
			r.expectRow(r.th, statusRow{executed: 1, failed: 1}, "history is kept")
			if st := r.rt.Stats(); st.Executed != 1 || st.FailedRuns != 1 {
				t.Fatalf("Stats Executed %d FailedRuns %d, want 1 and 1", st.Executed, st.FailedRuns)
			}
		}},
		{name: "inline_runs", cfg: tinyQueue, run: func(t *testing.T, r *statusRig) {
			r.hold()
			r.body = func(Trigger) { panic("inline overflow fault") }
			r.in.TStore(0, 1) // queued
			r.in.TStore(1, 2) // overflows: runs here, now, and panics
			r.expect(queue.StatusPending, "inline run done, first trigger still queued")
			r.expectRow(r.th, statusRow{pending: 1, failed: 1}, "an inline run is never dispatched")
			r.rt.Cancel(r.th)
			r.expect(queue.StatusFailed, "a failed inline run colours the row")

			r.reattach()
			r.body = func(Trigger) {}
			r.in.TStore(0, 3)
			r.in.TStore(1, 4) // overflows: runs here and succeeds
			r.rt.Cancel(r.th)
			r.expect(queue.StatusFailed, "a clean inline run does not clear the colour")
			if st := r.rt.Stats(); st.InlineRuns != 2 || st.FailedRuns != 1 || st.Executed != 0 {
				t.Fatalf("Stats InlineRuns %d FailedRuns %d Executed %d, want 2, 1 and 0", st.InlineRuns, st.FailedRuns, st.Executed)
			}

			r.reattach()
			r.unhold()
			r.in.TStore(0, 5)
			r.wait()
			r.expect(queue.StatusIdle, "a clean queued instance clears it")
			r.expectRow(r.th, statusRow{executed: 1, failed: 1}, "after the queued instance")
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
			r.body = func(Trigger) { r.rt.Cancel(r.th) }
			for i := 0; i < 3; i++ {
				r.in.TStore(i, 1)
			}
			r.unhold()
			r.wait()
			// The instances behind the cancelling one were squashed in the
			// queue or dropped from the worker's claim: cancelled work either
			// way, neither executed nor failed.
			r.expect(queue.StatusIdle, "after the cancelling instance")
			r.expectRow(r.th, statusRow{executed: 1}, "after the cancelling instance")
			if st := r.rt.Stats(); st.FailedRuns != 0 {
				t.Fatalf("Stats FailedRuns %d, want 0", st.FailedRuns)
			}
		}},
		{name: "recycled_id_starts_fresh", run: func(t *testing.T, r *statusRig) {
			ns := r.rt.NewNamespace("tenant")
			reg, err := ns.Region("r", 1)
			if err != nil {
				t.Fatal(err)
			}
			old, err := ns.Register("t", func(tg Trigger) {
				if tg.Region.Load(0) == 2 {
					panic("second instance faults")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ns.Attach(old, reg, 0, 1); err != nil {
				t.Fatal(err)
			}
			for v := uint64(1); v <= 2; v++ {
				reg.TStore(0, v)
				within(t, "Wait", func() { ns.Wait(old) })
			}
			if got := r.rt.Status(old); got != queue.StatusFailed || r.rt.Executed(old) != 1 {
				t.Fatalf("before retiring: Status %v Executed %d, want failed and 1", got, r.rt.Executed(old))
			}
			ns.Close() // retires the thread; its id goes on the free list
			next := r.rt.Register("next-owner", func(Trigger) {})
			if next != old {
				t.Fatalf("Register reused id %d, want the retired %d", next, old)
			}
			if got := r.rt.Status(next); got != queue.StatusIdle || r.rt.Executed(next) != 0 {
				t.Fatalf("recycled id: Status %v Executed %d, want idle and 0", got, r.rt.Executed(next))
			}
			r.expectRow(next, statusRow{}, "recycled id")
		}},
		{name: "unknown_thread", run: func(t *testing.T, r *statusRig) {
			for _, id := range []ThreadID{-1, 99} {
				if got := r.rt.Status(id); got != queue.StatusIdle || r.rt.Executed(id) != 0 {
					t.Fatalf("thread %d was never registered: Status %v Executed %d, want idle and 0", id, got, r.rt.Executed(id))
				}
			}
		}},
		{name: "settling_more_than_dispatched_panics", run: func(t *testing.T, r *statusRig) {
			d := r.rt.d
			d.mu.Lock()
			defer d.mu.Unlock()
			defer func() {
				if recover() == nil {
					t.Fatal("endRunLocked settled a queued entry no bracket had dispatched without panicking")
				}
			}()
			te := r.rt.threadsSnap()[r.th]
			te.running++ // the token, as beginRunLocked takes it; dispatched stays 0
			r.rt.endRunLocked(te, r.th, true, 1, true)
		}, corrupts: true},
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
					if !t.Failed() && !tc.corrupts {
						within(t, "final Barrier", r.rt.Barrier)
						assertQueueConservation(t, r.rt, tc.name)
					}
				})
			}
		})
	}
}

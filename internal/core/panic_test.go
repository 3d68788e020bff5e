package core

import (
	"sync/atomic"
	"testing"

	"dtt/internal/queue"
)

// TestPanicRecovered proves a panicking support-thread body does not crash
// the runtime on any backend: the panic is recovered, FailedRuns increments,
// the thread is idle again, and subsequent triggers still fire.
func TestPanicRecovered(t *testing.T) {
	backends := []Backend{BackendDeferred, BackendImmediate, BackendSeeded}
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			var panicking atomic.Bool
			panicking.Store(true)
			var runs atomic.Int64

			rt := newRuntime(t, Config{Backend: b, Workers: 2})
			in := rt.NewRegion("in", 1)
			th := rt.Register("fragile", func(tg Trigger) {
				runs.Add(1)
				if panicking.Load() {
					panic("support thread fault")
				}
			})
			if err := rt.Attach(th, in, 0, 1); err != nil {
				t.Fatalf("Attach: %v", err)
			}

			in.TStore(0, 1)
			rt.Wait(th)
			if got := rt.Stats().FailedRuns; got != 1 {
				t.Fatalf("FailedRuns = %d after panicking instance, want 1", got)
			}
			if got := rt.Status(th); got != queue.StatusIdle {
				t.Fatalf("Status = %v after panicking instance, want idle", got)
			}
			if got := rt.Stats().Executed; got != 0 {
				t.Fatalf("Executed = %d after panicking instance, want 0", got)
			}

			// The runtime survived: the next trigger fires and completes.
			panicking.Store(false)
			in.TStore(0, 2)
			rt.Wait(th)
			if got := runs.Load(); got != 2 {
				t.Fatalf("body ran %d times, want 2 (trigger after failure must still fire)", got)
			}
			if got := rt.Stats().FailedRuns; got != 1 {
				t.Fatalf("FailedRuns = %d after recovery, want 1", got)
			}
			if got := rt.Status(th); got != queue.StatusIdle {
				t.Fatalf("Status = %v after clean instance, want idle", got)
			}
			if got := rt.Stats().Executed; got != 1 {
				t.Fatalf("Executed = %d after clean instance, want 1", got)
			}
		})
	}
}

// TestPanicInlineOverflow drives the queue-overflow inline path through a
// panic and checks the stats identity Overflowed = InlineRuns + Dropped
// still holds: the failed inline run stays counted as an inline run.
func TestPanicInlineOverflow(t *testing.T) {
	var calls atomic.Int64
	rt := newRuntime(t, Config{Backend: BackendDeferred, QueueCapacity: 1})
	in := rt.NewRegion("in", 2) // two trigger words: the second is not squashed
	th := rt.Register("fragile", func(tg Trigger) {
		if calls.Add(1) == 1 {
			panic("inline overflow fault")
		}
	})
	if err := rt.Attach(th, in, 0, 2); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	in.TStore(0, 1) // enqueued
	in.TStore(1, 2) // overflows; runs inline and panics (first call)
	s := rt.Stats()
	if s.Overflowed != 1 || s.InlineRuns != 1 || s.Dropped != 0 {
		t.Fatalf("after inline panic: Overflowed=%d InlineRuns=%d Dropped=%d, want 1/1/0", s.Overflowed, s.InlineRuns, s.Dropped)
	}
	if s.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d after inline panic, want 1", s.FailedRuns)
	}
	if got := rt.Status(th); got != queue.StatusPending {
		t.Fatalf("Status = %v with the first trigger still queued, want pending", got)
	}

	rt.Wait(th) // drains the queued entry; second call succeeds
	s = rt.Stats()
	if s.Overflowed != s.InlineRuns+s.Dropped {
		t.Fatalf("Overflowed identity broken: %d != %d + %d", s.Overflowed, s.InlineRuns, s.Dropped)
	}
	if s.Executed != 1 || s.FailedRuns != 1 {
		t.Fatalf("Executed=%d FailedRuns=%d after drain, want 1/1", s.Executed, s.FailedRuns)
	}
	if got := rt.Status(th); got != queue.StatusIdle {
		t.Fatalf("Status = %v after clean drain, want idle", got)
	}
}

// TestPanicWithCheckerBalanced makes sure a recovered panic leaves the
// sanitizer's instance nesting balanced: later instances and joins must not
// trip internal-state panics or spurious violations.
func TestPanicWithCheckerBalanced(t *testing.T) {
	var panicking atomic.Bool
	panicking.Store(true)
	rt := newRuntime(t, Config{Backend: BackendDeferred, Checker: CheckStrict})
	in := rt.NewRegion("in", 1)
	out := rt.NewRegion("out", 1)
	th := rt.Register("fragile", func(tg Trigger) {
		if panicking.Load() {
			panic("fault before any write")
		}
		out.Store(0, tg.Region.Load(0)+1)
	})
	if err := rt.Attach(th, in, 0, 1); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	in.TStore(0, 1)
	rt.Wait(th)
	panicking.Store(false)
	in.TStore(0, 2)
	rt.Wait(th)
	if got := uint64(out.Load(0)); got != 3 {
		t.Fatalf("out[0] = %d, want 3", got)
	}
	if err := rt.CheckErr(); err != nil {
		t.Fatalf("sanitizer after recovered panic: %v", err)
	}
	if got := rt.Stats().FailedRuns; got != 1 {
		t.Fatalf("FailedRuns = %d, want 1", got)
	}
}

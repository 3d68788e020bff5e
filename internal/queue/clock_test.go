package queue

import (
	"testing"

	"dtt/internal/mem"
)

// TestEnqueueClockStamp pins the Entry.T0 contract: no clock means no
// stamp, a clock stamps at enqueue, a squashed re-trigger keeps the
// original entry's stamp, and a run's entries share one stamp, read once per
// run — and not at all by a run that enqueues nothing.
func TestEnqueueClockStamp(t *testing.T) {
	q := NewThreadQueue(4)
	o := offers{}
	if st := o.enqueue(q, 1, 100); st != Enqueued {
		t.Fatalf("Enqueue = %v", st)
	}
	if e, _ := q.Dequeue(); e.T0 != 0 {
		t.Fatalf("T0 = %d without a clock, want 0", e.T0)
	}

	now := int64(1000)
	q.SetClock(func() int64 { now++; return now })
	if st := o.enqueue(q, 1, 100); st != Enqueued {
		t.Fatalf("Enqueue = %v", st)
	}
	if st := o.enqueue(q, 1, 100); st != Squashed {
		t.Fatalf("re-trigger = %v, want Squashed", st)
	}
	e, ok := q.Dequeue()
	if !ok || e.T0 != 1001 {
		t.Fatalf("T0 = %d (ok=%v), want the first enqueue's stamp 1001", e.T0, ok)
	}
	if st := o.enqueue(q, 2, 200); st != Enqueued {
		t.Fatalf("Enqueue = %v", st)
	}
	if e := q.DequeueAt(0); e.T0 != 1002 {
		t.Fatalf("second entry T0 = %d, want 1002", e.T0)
	}

	p := o.set(3, 0)
	if k, enq, _ := q.EnqueueRun(3, []mem.Addr{0x100, 0x108, 0x100, 0x110}, p); k != 4 || enq != 3 {
		t.Fatalf("EnqueueRun = %d taken, %d enqueued, want 4 and 3", k, enq)
	}
	if k, enq, _ := q.EnqueueRun(3, []mem.Addr{0x108}, p); k != 1 || enq != 0 {
		t.Fatalf("squashed run = %d taken, %d enqueued, want 1 and 0", k, enq)
	}
	for i := 0; i < 3; i++ {
		if e := q.DequeueAt(0); e.T0 != 1003 {
			t.Fatalf("run entry %d T0 = %d, want the run's one stamp 1003", i, e.T0)
		}
	}
	if now != 1003 {
		t.Fatalf("clock read %d times, want once per enqueueing run", now-1000)
	}
}

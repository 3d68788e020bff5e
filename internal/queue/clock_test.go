package queue

import "testing"

// TestEnqueueClockStamp pins the Entry.T0 contract: no clock means no
// stamp, a clock stamps at enqueue, and a squashed re-trigger keeps the
// original entry's stamp.
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
}

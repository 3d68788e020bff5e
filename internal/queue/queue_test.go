package queue

import (
	"sync"
	"testing"
	"testing/quick"

	"dtt/internal/mem"
)

func TestRegistryAttachLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Attach(1, 100, 200); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(2, 150, 250); err != nil {
		t.Fatal(err)
	}
	got := eachIDs(r, 175)
	if len(got) != 2 {
		t.Fatalf("Each(175) = %v, want both threads", got)
	}
	if got := eachIDs(r, 100); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Each(100) = %v, want [1]", got)
	}
	if got := eachIDs(r, 200); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Each(200) = %v (hi is exclusive), want [2]", got)
	}
	if got := eachIDs(r, 99); len(got) != 0 {
		t.Fatalf("Each(99) = %v, want none", got)
	}
	if got := eachIDs(r, 250); len(got) != 0 {
		t.Fatalf("Each(250) = %v, want none", got)
	}
}

func TestRegistryRejectsEmptyRange(t *testing.T) {
	r := NewRegistry()
	if err := r.Attach(1, 100, 100); err == nil {
		t.Fatalf("empty range accepted")
	}
	if err := r.Attach(1, 200, 100); err == nil {
		t.Fatalf("inverted range accepted")
	}
}

func TestRegistryDetach(t *testing.T) {
	r := NewRegistry()
	r.Attach(1, 0, 64)
	r.Attach(1, 128, 192)
	r.Attach(2, 0, 64)
	if n := r.Detach(1); n != 2 {
		t.Fatalf("Detach removed %d, want 2", n)
	}
	if got := eachIDs(r, 32); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after detach, Each(32) = %v", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after detach", r.Len())
	}
}

func TestRegistryCovers(t *testing.T) {
	r := NewRegistry()
	r.Attach(3, 1000, 2000)
	if !covers(r, 1000) || !covers(r, 1999) {
		t.Fatalf("Each missed in-range addresses")
	}
	if covers(r, 999) || covers(r, 2000) {
		t.Fatalf("Each matched out-of-range addresses")
	}
}

func TestRegistryLookupAfterLateAttach(t *testing.T) {
	// Attach after a lookup must re-sort, not serve stale results.
	r := NewRegistry()
	r.Attach(1, 500, 600)
	eachIDs(r, 550)
	r.Attach(2, 100, 200)
	if got := eachIDs(r, 150); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Each(150) after late attach = %v", got)
	}
}

func TestRegistryLookupProperty(t *testing.T) {
	// Each must agree with a brute-force scan for arbitrary attachments.
	f := func(ranges []struct{ Lo, Span uint8 }, probe uint8) bool {
		r := NewRegistry()
		for i, rg := range ranges {
			lo := mem.Addr(rg.Lo)
			hi := lo + mem.Addr(rg.Span%32) + 1
			r.Attach(ThreadID(i), lo, hi)
		}
		got := eachIDs(r, mem.Addr(probe))
		want := 0
		for i, rg := range ranges {
			lo := mem.Addr(rg.Lo)
			hi := lo + mem.Addr(rg.Span%32) + 1
			if mem.Addr(probe) >= lo && mem.Addr(probe) < hi {
				want++
				found := false
				for _, id := range got {
					if id == ThreadID(i) {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryManyRangesStress(t *testing.T) {
	// Hundreds of overlapping attachments with interleaved detaches:
	// Each must always agree with a brute-force scan.
	r := NewRegistry()
	type att struct {
		id     ThreadID
		lo, hi mem.Addr
	}
	var live []att
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 400; step++ {
		switch next(4) {
		case 0, 1, 2:
			lo := mem.Addr(next(4096))
			hi := lo + mem.Addr(next(256)+1)
			id := ThreadID(next(16))
			if err := r.Attach(id, lo, hi); err != nil {
				t.Fatal(err)
			}
			live = append(live, att{id, lo, hi})
		case 3:
			id := ThreadID(next(16))
			r.Detach(id)
			kept := live[:0]
			for _, a := range live {
				if a.id != id {
					kept = append(kept, a)
				}
			}
			live = kept
		}
		probe := mem.Addr(next(4500))
		got := eachIDs(r, probe)
		want := 0
		for _, a := range live {
			if probe >= a.lo && probe < a.hi {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("step %d: Each(%d) = %d matches, want %d", step, probe, len(got), want)
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewThreadQueue(4)
	o := offers{}
	o.enqueue(q, 1, 0x10)
	o.enqueue(q, 2, 0x20)
	o.enqueue(q, 3, 0x30)
	for want := ThreadID(1); want <= 3; want++ {
		e, ok := q.Dequeue()
		if !ok || e.Thread != want {
			t.Fatalf("Dequeue = %v,%v, want thread %d", e, ok, want)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatalf("Dequeue from empty queue succeeded")
	}
}

func TestQueueSquashesSameAddress(t *testing.T) {
	q := NewThreadQueue(8)
	o := offers{}
	if s := o.enqueue(q, 1, 0x10); s != Enqueued {
		t.Fatalf("first enqueue: %v", s)
	}
	if s := o.enqueue(q, 1, 0x10); s != Squashed {
		t.Fatalf("duplicate (thread,addr): %v, want squashed", s)
	}
	if s := o.enqueue(q, 1, 0x18); s != Enqueued {
		t.Fatalf("same thread, new addr: %v, want enqueued", s)
	}
	q.Dequeue()
	if s := o.enqueue(q, 1, 0x10); s != Enqueued {
		t.Fatalf("re-enqueue after dequeue: %v, want enqueued", s)
	}
}

// TestQueueRingWraparound drives the head index around the ring several
// times and checks FIFO order, per-thread counts and dedup bookkeeping
// survive the wrap.
func TestQueueRingWraparound(t *testing.T) {
	const cap = 4
	q := NewThreadQueue(cap)
	o := offers{}
	next := mem.Addr(0)
	for round := 0; round < 5*cap; round++ {
		// Keep the queue at 3 entries while the head walks the ring.
		for q.Len() < 3 {
			if s := o.enqueue(q, ThreadID(int(next)%3), next*8); s != Enqueued {
				t.Fatalf("round %d: enqueue at %#x: %v", round, next*8, s)
			}
			next++
		}
		e, ok := q.Dequeue()
		if !ok {
			t.Fatalf("round %d: dequeue failed", round)
		}
		// Addresses were enqueued ascending, one per entry.
		if want := mem.Addr(round) * 8; e.Addr != want {
			t.Fatalf("round %d: FIFO order broken: dequeued %#x, want %#x", round, e.Addr, want)
		}
	}
	for id := ThreadID(0); id < 3; id++ {
		want := q.PendingCount(id)
		got := 0
		for {
			n := q.DequeueRun(func(e Entry) bool { return e.Thread == id }, make([]Entry, 2))
			if n == 0 {
				break
			}
			got += n
		}
		if got != want || q.PendingCount(id) != 0 {
			t.Fatalf("thread %d: drained %d entries, PendingCount said %d (now %d)", id, got, want, q.PendingCount(id))
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d", q.Len())
	}
}

// TestQueuePendingCount checks the O(1) per-thread pending counter against
// every mutation: enqueue, dequeue, filtered dequeue and squash.
func TestQueuePendingCount(t *testing.T) {
	q := NewThreadQueue(8)
	o := offers{}
	o.enqueue(q, 1, 0x10)
	o.enqueue(q, 2, 0x20)
	o.enqueue(q, 1, 0x18)
	if q.PendingCount(1) != 2 || q.PendingCount(2) != 1 || q.PendingCount(3) != 0 {
		t.Fatalf("PendingCount = %d,%d,%d", q.PendingCount(1), q.PendingCount(2), q.PendingCount(3))
	}
	q.Dequeue() // removes (1, 0x10)
	if q.PendingCount(1) != 1 {
		t.Fatalf("after Dequeue: PendingCount(1) = %d", q.PendingCount(1))
	}
	q.DequeueRun(func(e Entry) bool { return e.Thread == 1 }, make([]Entry, 1))
	if q.PendingCount(1) != 0 || q.Pending(1) {
		t.Fatalf("after DequeueRun: PendingCount(1) = %d", q.PendingCount(1))
	}
	q.Squash(2)
	if q.PendingCount(2) != 0 || q.Len() != 0 {
		t.Fatalf("after Squash: PendingCount(2) = %d, Len = %d", q.PendingCount(2), q.Len())
	}
	if q.PendingCount(-1) != 0 || q.PendingCount(1000) != 0 {
		t.Fatalf("out-of-range PendingCount not 0")
	}
}

func TestQueueOverflow(t *testing.T) {
	q := NewThreadQueue(2)
	o := offers{}
	o.enqueue(q, 1, 0x10)
	o.enqueue(q, 2, 0x20)
	if s := o.enqueue(q, 3, 0x30); s != Overflowed {
		t.Fatalf("full queue: %v, want overflowed", s)
	}
	// A squash is detected before overflow: a duplicate of a pending entry
	// must not count as overflow even when the queue is full.
	if s := o.enqueue(q, 1, 0x10); s != Squashed {
		t.Fatalf("duplicate on full queue: %v, want squashed", s)
	}
	c := q.Counters()
	if c.Overflowed != 1 || c.Peak != 2 {
		t.Fatalf("overflowed=%d peak=%d", c.Overflowed, c.Peak)
	}
}

// TestQueueMarks: a mark holds its address's pending bit outside the ring —
// a later offer of the word squashes even with room in the ring, and the
// mark counts in the thread's pending count but not in Len. TakeMarks hands
// the marks back oldest first, at most len(out) at a time, clearing their
// bits; a mark whose bit a ring entry already holds leaves the bit to the
// entry; DropMarks removes the rest.
func TestQueueMarks(t *testing.T) {
	q := NewThreadQueue(4)
	p := NewPendingSet(0, 1<<10)
	for _, addr := range []mem.Addr{0x10, 0x18, 0x20} {
		q.Mark(1, addr, &p)
	}
	if q.Len() != 0 || q.PendingCount(1) != 3 || !q.Pending(1) || q.Pending(2) {
		t.Fatalf("after three marks: Len %d PendingCount(1) %d", q.Len(), q.PendingCount(1))
	}
	if s := offer(q, 1, 0x10, &p); s != Squashed {
		t.Fatalf("offer of a marked word: %v, want squashed", s)
	}
	if s := offer(q, 1, 0x28, &p); s != Enqueued {
		t.Fatalf("offer of an unmarked word: %v, want enqueued", s)
	}
	q.Mark(1, 0x28, &p) // the ring entry holds the bit
	var out [2]Entry
	if n := q.TakeMarks(1, out[:]); n != 2 || out[0].Addr != 0x10 || out[1].Addr != 0x18 {
		t.Fatalf("TakeMarks = %d %+v, want the two oldest", n, out[:n])
	}
	if s := offer(q, 1, 0x10, &p); s != Enqueued {
		t.Fatalf("offer of a swept word: %v, want enqueued", s)
	}
	if n := q.DropMarks(1); n != 2 || q.PendingCount(1) != 2 {
		t.Fatalf("DropMarks = %d, PendingCount(1) %d, want 2 and the two ring entries", n, q.PendingCount(1))
	}
	if s := offer(q, 1, 0x28, &p); s != Squashed {
		t.Fatalf("the ring entry lost its bit to a mark it preceded: %v", s)
	}
	if s := offer(q, 1, 0x20, &p); s != Enqueued {
		t.Fatalf("offer of a dropped mark's word: %v, want enqueued", s)
	}
	if n := q.TakeMarks(1, out[:]) + q.TakeMarks(7, out[:]) + q.DropMarks(7); n != 0 {
		t.Fatalf("%d marks left, want none", n)
	}
	if c := q.Counters(); c.Enqueued != 3 || c.Squashed != 2 || c.Overflowed != 0 {
		t.Fatalf("marks moved the admission counters: %+v", c)
	}
}

// TestQueueSeal: a sealed queue reads as full to every later offer. An offer
// whose pending bit is set still squashes, every other offer overflows, even
// with room in the ring, and the entries queued before the seal still
// dequeue in order.
func TestQueueSeal(t *testing.T) {
	q := NewThreadQueue(4)
	o := offers{}
	o.enqueue(q, 1, 0x10)
	o.enqueue(q, 2, 0x20)
	q.Seal()
	if !q.Sealed() {
		t.Fatal("Sealed() = false after Seal")
	}
	if s := o.enqueue(q, 1, 0x10); s != Squashed {
		t.Fatalf("pending duplicate on a sealed queue: %v, want squashed", s)
	}
	if s := o.enqueue(q, 1, 0x18); s != Overflowed {
		t.Fatalf("new offer on a sealed queue with room: %v, want overflowed", s)
	}
	for want := ThreadID(1); want <= 2; want++ {
		if e, ok := q.Dequeue(); !ok || e.Thread != want {
			t.Fatalf("dequeue after Seal = %v,%v, want thread %d", e, ok, want)
		}
	}
	// The bit cleared with its entry: the same offer now overflows.
	if s := o.enqueue(q, 1, 0x10); s != Overflowed {
		t.Fatalf("offer of a dequeued address on a sealed queue: %v, want overflowed", s)
	}
	if c := q.Counters(); c.Enqueued != 2 || c.Squashed != 1 || c.Overflowed != 2 || c.Dequeued != 2 || q.Len() != 0 {
		t.Fatalf("counters %+v with %d pending, want 2 enqueued, 1 squashed, 2 overflowed, 2 dequeued, 0 pending", c, q.Len())
	}
}

func TestQueueSquash(t *testing.T) {
	q := NewThreadQueue(8)
	o := offers{}
	o.enqueue(q, 1, 0x10)
	o.enqueue(q, 2, 0x20)
	o.enqueue(q, 1, 0x18)
	if n := q.Squash(1); n != 2 {
		t.Fatalf("Squash removed %d, want 2", n)
	}
	if q.Pending(1) {
		t.Fatalf("thread 1 still pending after squash")
	}
	// After squashing, the pending bit must be clear again.
	if s := o.enqueue(q, 1, 0x10); s != Enqueued {
		t.Fatalf("enqueue after squash: %v", s)
	}
	e, ok := q.Dequeue()
	if !ok || e.Thread != 2 {
		t.Fatalf("surviving entry = %v,%v, want thread 2", e, ok)
	}
}

func TestQueueCountersConsistent(t *testing.T) {
	// Conservation under arbitrary interleavings of enqueue, dequeue and
	// squash: every admitted entry leaves through a dequeue or a squash or
	// is still pending. Squash used to remove entries without accounting
	// them anywhere, so enqueued != dequeued + Len() after any Cancel.
	q := NewThreadQueue(4)
	o := offers{}
	f := func(ops []struct {
		T uint8
		A uint8
	}) bool {
		for _, op := range ops {
			tid := ThreadID(op.T % 4)
			o.enqueue(q, tid, mem.Addr(op.A)*8)
			switch op.A % 5 {
			case 0:
				q.Dequeue()
			case 1:
				q.Squash(tid)
			}
		}
		c := q.Counters()
		return c.Enqueued == c.Dequeued+c.SquashedOut+int64(q.Len()) &&
			c.Squashed >= 0 && c.Overflowed >= 0 && c.Peak <= q.Cap()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSquashAccounting pins the Squash counter contract directly:
// squashed-out entries are not Dequeued, and the conservation identity
// holds through a cancel.
func TestQueueSquashAccounting(t *testing.T) {
	q := NewThreadQueue(8)
	o := offers{}
	o.enqueue(q, 1, 0x10)
	o.enqueue(q, 2, 0x20)
	o.enqueue(q, 1, 0x18)
	q.Dequeue() // (1, 0x10)
	if n := q.Squash(1); n != 1 {
		t.Fatalf("Squash removed %d, want 1", n)
	}
	c := q.Counters()
	if c.SquashedOut != 1 {
		t.Fatalf("SquashedOut = %d, want 1", c.SquashedOut)
	}
	if c.Dequeued != 1 {
		t.Fatalf("Dequeued = %d, want 1 (squash must not count as dequeue)", c.Dequeued)
	}
	if c.Enqueued != c.Dequeued+c.SquashedOut+int64(q.Len()) {
		t.Fatalf("conservation broken: %+v with Len %d", c, q.Len())
	}
}

func TestQueueDequeueFirst(t *testing.T) {
	q := NewThreadQueue(8)
	o := offers{}
	o.enqueue(q, 1, 0x10)
	o.enqueue(q, 2, 0x20)
	o.enqueue(q, 1, 0x18)
	out := make([]Entry, 4)
	// Skip thread 1: the first match is thread 2, mid-queue, a run of one.
	if n := q.DequeueRun(func(e Entry) bool { return e.Thread != 1 }, out); n != 1 || out[0].Thread != 2 {
		t.Fatalf("DequeueRun = %d %v, want one entry of thread 2", n, out[:n])
	}
	// Remaining order preserved.
	e, _ := q.Dequeue()
	if e.Thread != 1 || e.Addr != 0x10 {
		t.Fatalf("order disturbed: %v", e)
	}
	// No match: queue untouched.
	if n := q.DequeueRun(func(Entry) bool { return false }, out); n != 0 {
		t.Fatalf("DequeueRun matched nothing but took %d", n)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after failed DequeueRun", q.Len())
	}
	// The pending bit must be cleared by DequeueRun too.
	q.DequeueRun(func(Entry) bool { return true }, out)
	o.enqueue(q, 2, 0x20)
	if s := o.enqueue(q, 2, 0x20); s != Squashed {
		t.Fatalf("dedup bookkeeping broken after DequeueRun: %v", s)
	}
}

// TestQueueDequeueRun pins the claim shape: the run starts at the oldest
// match, takes only that thread's entries directly behind it, stops at
// len(out), and leaves older and younger entries in order with their pending
// bits intact.
func TestQueueDequeueRun(t *testing.T) {
	q := NewThreadQueue(8)
	o := offers{}
	for _, e := range []Entry{{Thread: 1, Addr: 0x10}, {Thread: 2, Addr: 0x20}, {Thread: 2, Addr: 0x28},
		{Thread: 2, Addr: 0x30}, {Thread: 1, Addr: 0x18}, {Thread: 2, Addr: 0x38}} {
		o.enqueue(q, e.Thread, e.Addr)
	}
	out := make([]Entry, 2)
	notOne := func(e Entry) bool { return e.Thread != 1 }
	if n := q.DequeueRun(notOne, out); n != 2 || out[0].Addr != 0x20 || out[1].Addr != 0x28 {
		t.Fatalf("first run = %d %v, want thread 2 at 0x20, 0x28 (capped by len(out))", n, out[:n])
	}
	if n := q.DequeueRun(notOne, out); n != 1 || out[0].Addr != 0x30 {
		t.Fatalf("second run = %d %v, want thread 2 at 0x30 alone (thread 1 interrupts the run)", n, out[:n])
	}
	if q.PendingCount(2) != 1 || q.PendingCount(1) != 2 || q.Len() != 3 {
		t.Fatalf("pending after runs: t1=%d t2=%d len=%d", q.PendingCount(1), q.PendingCount(2), q.Len())
	}
	if s := o.enqueue(q, 2, 0x20); s != Enqueued {
		t.Fatalf("claimed entry's pending bit not cleared: %v", s)
	}
	if s := o.enqueue(q, 2, 0x38); s != Squashed {
		t.Fatalf("unclaimed entry's pending bit lost: %v", s)
	}
	for i, want := range []mem.Addr{0x10, 0x18, 0x38, 0x20} {
		if e, _ := q.Dequeue(); e.Addr != want {
			t.Fatalf("entry %d after runs = %#x, want %#x", i, e.Addr, want)
		}
	}
	c := q.Counters()
	if c.Dequeued != 7 || c.Enqueued != c.Dequeued+c.SquashedOut+int64(q.Len()) {
		t.Fatalf("counters %+v with Len %d", c, q.Len())
	}
}

func TestRegistryAccessors(t *testing.T) {
	r := NewRegistry()
	r.Attach(1, 0, 64)
	r.Attach(2, 32, 96)
	atts := r.Attachments()
	if len(atts) != 2 {
		t.Fatalf("Attachments = %v", atts)
	}
	// The returned slice is a copy.
	atts[0].Thread = 99
	if r.Attachments()[0].Thread == 99 {
		t.Fatalf("Attachments aliases internal state")
	}
}

// TestRegistryConcurrentReads exercises the lock-free read side: Each and
// Snapshot race against a single mutator (the contract: mutations serialised
// by the caller, reads free). Run under -race this checks the snapshot
// publication.
func TestRegistryConcurrentReads(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := mem.Addr(i%4096) * 8
				for _, a := range r.Snapshot().Prefix(addr) {
					if a.Thread < 0 || a.Thread >= 8 || a.Lo > addr {
						t.Errorf("Prefix(%d) holds impossible attachment %+v", addr, a)
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		id := ThreadID(i % 8)
		lo := mem.Addr(i%512) * 64
		if err := r.Attach(id, lo, lo+64); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			r.Detach(id)
		}
	}
	close(stop)
	wg.Wait()
}

func TestQueuePendingAndStatusStrings(t *testing.T) {
	q := NewThreadQueue(4)
	o := offers{}
	if q.Pending(7) {
		t.Fatalf("empty queue has pending thread")
	}
	o.enqueue(q, 7, 0x8)
	if !q.Pending(7) || q.Pending(8) {
		t.Fatalf("Pending wrong")
	}
	if EnqueueStatus(42).String() == "" {
		t.Fatalf("unknown enum formatting empty")
	}
}

func TestQueuePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewThreadQueue(0) did not panic")
		}
	}()
	NewThreadQueue(0)
}

func TestPolicyStrings(t *testing.T) {
	if Enqueued.String() != "enqueued" || Squashed.String() != "squashed" || Overflowed.String() != "overflowed" {
		t.Fatalf("status names: %v %v %v", Enqueued, Squashed, Overflowed)
	}
}

func TestStatusString(t *testing.T) {
	if StatusIdle.String() != "idle" || StatusPending.String() != "pending" || StatusRunning.String() != "running" {
		t.Fatalf("status names wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Fatalf("unknown status formatting: %v", Status(9))
	}
}

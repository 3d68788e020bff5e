package queue

import (
	"fmt"

	"dtt/internal/mem"
)

// Entry is one pending thread-queue slot.
type Entry struct {
	Thread ThreadID
	Addr   mem.Addr // the trigger address that fired
	// T0 is the enqueue timestamp in the queue clock's units, 0 when no
	// clock is set (telemetry off) or the entry never sat in a queue (an
	// inline overflow run). A squashed re-trigger keeps the original
	// entry's stamp: the latency being measured is how long the oldest
	// unserved trigger waited.
	T0 int64
	// pend is the word of its attachment's PendingSet that holds this entry's
	// pending bit while the entry sits in the ring or is marked; nil anywhere
	// else, and on a mark that found its bit already held (Mark).
	pend *uint64
}

// EnqueueStatus is the queue's verdict on one offer of a run (EnqueueRun).
type EnqueueStatus int

const (
	// Enqueued means a new entry was added.
	Enqueued EnqueueStatus = iota
	// Squashed means a matching entry was already pending.
	Squashed
	// Overflowed means the queue was full or sealed; the caller runs the
	// thread inline in the storing context, or marks it (Mark) for the
	// holder of the thread's run token.
	Overflowed
)

// String returns the status name.
func (s EnqueueStatus) String() string {
	switch s {
	case Enqueued:
		return "enqueued"
	case Squashed:
		return "squashed"
	case Overflowed:
		return "overflowed"
	}
	return fmt.Sprintf("EnqueueStatus(%d)", int(s))
}

// PendingSet is one attachment's share of the queue's pending set: a bit per
// word of the trigger range, set exactly while an entry for (the attachment's
// thread, that word) sits in the ring. The runtime keeps one on each
// attachment and hands it to EnqueueRun, which has already had to find the
// attachment to confirm the trigger; "is this trigger already pending?" is
// then a bit test on a line the producer just touched rather than a probe of a
// shared table. Bits are laid out by absolute address — bit addr/WordBytes%64
// of word addr/pendSpan, counted from the range's first word — so an entry
// needs only the address of its bitmap word to clear its bit when it leaves.
// Guarded, like the ring, by the runtime's dispatch lock.
type PendingSet struct {
	first mem.Addr // lo / pendSpan: the address block bits[0] covers
	bits  []uint64 //dtt:guards dispatcher.mu
}

// pendSpan is the bytes of address space one bitmap word covers.
const pendSpan = 64 * mem.WordBytes

// NewPendingSet returns the empty pending set of trigger range [lo, hi),
// lo < hi: (hi-lo)/WordBytes bits, rounded out to whole bitmap words.
func NewPendingSet(lo, hi mem.Addr) PendingSet {
	first := lo / pendSpan
	return PendingSet{first: first, bits: make([]uint64, (hi-1)/pendSpan-first+1)}
}

// slot returns the bitmap word holding addr's pending bit, and the bit.
func (p *PendingSet) slot(addr mem.Addr) (*uint64, uint64) {
	return &p.bits[addr/pendSpan-p.first], pendBit(addr)
}

func pendBit(addr mem.Addr) uint64 { return 1 << (addr / mem.WordBytes % 64) }

// ThreadQueue is the fixed-capacity pending-trigger queue. Entries enter in
// trigger order and leave in FIFO order. Storage is a ring buffer sized at
// construction, so EnqueueRun and Dequeue move no entries and allocate nothing;
// a per-thread pending count makes the Pending predicate — which the
// runtime's Wait wakeup condition evaluates under the dispatch lock — O(1)
// instead of a queue scan.
type ThreadQueue struct {
	cap int
	// ring[(head+i)%cap] for i in [0, n) are the pending entries, oldest
	// first.
	ring      []Entry //dtt:guards dispatcher.mu
	head      int     //dtt:guards dispatcher.mu
	n         int     //dtt:guards dispatcher.mu
	perThread []int   // pending entries per ThreadID, ring and marks, grown on demand
	// sealed makes the queue read as full to every later offer (Seal).
	sealed bool //dtt:guards dispatcher.mu
	// clock stamps Entry.T0 at enqueue when non-nil; the runtime sets it
	// (to the telemetry clock) only when telemetry is on, so the default
	// enqueue path never pays for a time read.
	clock func() int64

	c Counters

	// marks[t] are thread t's marks, oldest first: overflowed offers that
	// wait outside the ring for the holder of t's run token (Mark). Last,
	// so the enqueue path's fields keep their lines.
	marks [][]Entry //dtt:guards dispatcher.mu
}

// Counters are a ThreadQueue's lifetime statistics. They obey
//
//	Enqueued = Dequeued + SquashedOut + Len()
//
// at every quiescent point: every entry that entered the ring left it either
// through a dequeue or through a Squash (tcancel), or is still pending.
// Squashed and Overflowed count offers that never entered the ring.
type Counters struct {
	// Enqueued counts entries admitted to the ring.
	Enqueued int64
	// Squashed counts offers absorbed by duplicate squashing.
	Squashed int64
	// Overflowed counts offers that found the ring full or sealed.
	Overflowed int64
	// Dequeued counts entries removed by Dequeue/DequeueRun/DequeueAt.
	Dequeued int64
	// SquashedOut counts pending entries removed by Squash (tcancel).
	SquashedOut int64
	// Peak is the maximum ring occupancy ever observed.
	Peak int
}

// NewThreadQueue returns a queue with the given capacity. Capacity must be
// positive.
func NewThreadQueue(capacity int) *ThreadQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive thread queue capacity %d", capacity))
	}
	return &ThreadQueue{cap: capacity, ring: make([]Entry, capacity)}
}

// at returns the i-th oldest slot. head < cap and i <= n <= cap always hold,
// so a conditional subtract replaces the modulo — a measurable saving on the
// enqueue hot path, where the divisor is not a compile-time constant.
func (q *ThreadQueue) at(i int) *Entry {
	j := q.head + i
	if j >= q.cap {
		j -= q.cap
	}
	return &q.ring[j]
}

// countUp adds n to thread t's pending count.
func (q *ThreadQueue) countUp(t ThreadID, n int) {
	if int(t) >= len(q.perThread) {
		grown := make([]int, int(t)+1) //dtt:escape-ok -- per-thread counter growth; allocates only on first sight of a thread id
		copy(grown, q.perThread)
		q.perThread = grown
	}
	q.perThread[t] += n
}

// clearPending clears the pending bit of the entry in ring slot s, which is
// leaving the ring, and with it the slot's hold on the attachment's bitmap: a
// vacated slot must not keep a cancelled attachment's bits reachable. A mark
// that holds no bit clears nothing.
func clearPending(s *Entry) {
	if s.pend != nil {
		*s.pend &^= pendBit(s.Addr)
		s.pend = nil
	}
}

// EnqueueRun offers the fired triggers of thread t at addrs, in order, to the
// queue: what as many single offers would do, in one pass. p is the pending
// set of t's attachment covering every address of the run — the first
// attachment of t covering it, the same one for every offer of (t, addr),
// which is the caller's to guarantee. An offer whose bit is already set is
// squashed — the paper's one dedup policy: the support thread reads the
// latest data when it runs, so re-executing for every intermediate value of a
// word is pure waste — and so is an address the run repeats. Any other offer
// enters the ring, or overflows when the ring is full or sealed.
//
// The run stops after the first offer that overflows: k is the number of
// offers taken, enq how many of them entered the ring, and overflowed
// reports that addrs[k-1] overflowed, for the caller to mark (Mark) or run
// inline before it offers addrs[k:]. The other k-enq offers, less the
// overflowed one, squashed. The write position, the clock read — one T0 for
// the run's entries — and the counters settle once per call, not per offer.
func (q *ThreadQueue) EnqueueRun(t ThreadID, addrs []mem.Addr, p *PendingSet) (k, enq int, overflowed bool) {
	room := q.cap - q.n
	if q.sealed {
		room = 0
	}
	j := q.head + q.n // the write position
	if j >= q.cap {
		j -= q.cap
	}
	for k < len(addrs) {
		addr := addrs[k]
		k++
		w, bit := p.slot(addr)
		if *w&bit != 0 {
			continue
		}
		if enq == room {
			overflowed = true
			break
		}
		*w |= bit
		q.ring[j] = Entry{Thread: t, Addr: addr, pend: w}
		if j++; j == q.cap {
			j = 0
		}
		enq++
	}
	if enq != k {
		squashed := k - enq
		if overflowed {
			squashed--
			q.c.Overflowed++
		}
		q.c.Squashed += int64(squashed)
		if enq == 0 {
			return k, 0, overflowed
		}
	}
	if q.clock != nil {
		q.stamp(enq)
	}
	q.n += enq
	q.countUp(t, enq) //dtt:escape-ok -- inlined per-thread counter growth; allocates only on first sight of a thread id
	q.c.Enqueued += int64(enq)
	if q.n > q.c.Peak {
		q.c.Peak = q.n
	}
	return k, enq, overflowed
}

// stamp gives the enq entries just written behind the ring's tail one T0,
// read from the queue's clock.
func (q *ThreadQueue) stamp(enq int) {
	t0 := q.clock()
	for i := q.n; i < q.n+enq; i++ {
		q.at(i).T0 = t0
	}
}

// Dequeue removes and returns the oldest entry. ok is false when the queue
// is empty.
func (q *ThreadQueue) Dequeue() (e Entry, ok bool) {
	if q.n == 0 {
		return Entry{}, false
	}
	return q.DequeueAt(0), true
}

// DequeueRun removes the oldest entry satisfying pred together with the
// entries of the same thread directly behind it, up to len(out), copies them
// into out oldest first and returns how many it took; the order of the rest
// is preserved. It returns 0 when no entry matches. The immediate backend's
// worker claims with it: pred skips entries whose thread already has a
// running instance, and the run behind the match amortizes one critical
// section over several instances of that thread. Removal shifts the entries
// older than the match — usually none, since dispatchable work clusters at
// the head — and never allocates.
func (q *ThreadQueue) DequeueRun(pred func(Entry) bool, out []Entry) int {
	for i := 0; i < q.n; i++ {
		first := *q.at(i)
		if !pred(first) {
			continue
		}
		k := 0
		for k < len(out) && i+k < q.n {
			s := q.at(i + k)
			if s.Thread != first.Thread {
				break
			}
			clearPending(s)
			out[k] = *s
			k++
		}
		q.perThread[first.Thread] -= k
		q.removeRun(i, k)
		return k
	}
	return 0
}

// removeRun takes the k entries at positions [i, i+k) out of the ring: the i
// older entries shift back over them and the head advances. Callers have
// already cleared the removed entries' pending bits and per-thread counts.
func (q *ThreadQueue) removeRun(i, k int) {
	for j := i - 1; j >= 0; j-- {
		*q.at(j + k) = *q.at(j)
		q.at(j).pend = nil
	}
	q.head += k
	if q.head >= q.cap {
		q.head -= q.cap
	}
	q.n -= k
	q.c.Dequeued += int64(k)
}

// EntryAt returns the i-th oldest pending entry without removing it. It
// panics if i is out of range. The deterministic scheduler backend uses it
// to enumerate dispatch candidates.
func (q *ThreadQueue) EntryAt(i int) Entry {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("queue: EntryAt(%d) with %d pending", i, q.n))
	}
	return *q.at(i)
}

// DequeueAt removes and returns the i-th oldest entry, preserving the order
// of the rest. It panics if i is out of range. Like DequeueRun, removal
// shifts the entries older than the target and never allocates.
func (q *ThreadQueue) DequeueAt(i int) Entry {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("queue: DequeueAt(%d) with %d pending", i, q.n))
	}
	s := q.at(i)
	clearPending(s)
	e := *s
	q.perThread[e.Thread]--
	q.removeRun(i, 1)
	return e
}

// Squash removes all pending entries of thread t (tcancel) and returns how
// many were removed. Removed entries are accounted in Counters.SquashedOut,
// not Dequeued: they never executed.
func (q *ThreadQueue) Squash(t ThreadID) int {
	removed := 0
	kept := 0
	for i := 0; i < q.n; i++ {
		s := q.at(i)
		if s.Thread == t {
			removed++
			clearPending(s)
			continue
		}
		if kept != i {
			*q.at(kept) = *s
			s.pend = nil
		}
		kept++
	}
	q.n = kept
	if removed > 0 {
		q.perThread[t] -= removed
		q.c.SquashedOut += int64(removed)
	}
	return removed
}

// Mark records an offer of thread t at addr that overflowed while t's run
// token is held as a mark: pending like a ring entry — it sets the address's
// pending bit, so later offers of (t, addr) squash, and counts in t's pending
// count — but outside the ring, which a mark never waits for. The token's
// holder takes the marks (TakeMarks) before it releases the token, and a
// tcancel drops them (DropMarks). p is as for EnqueueRun. A mark whose bit an
// entry or an earlier mark already holds still joins the list, to run, but
// leaves the bit to its holder.
func (q *ThreadQueue) Mark(t ThreadID, addr mem.Addr, p *PendingSet) {
	w, bit := p.slot(addr)
	e := Entry{Thread: t, Addr: addr}
	if *w&bit == 0 {
		*w |= bit
		e.pend = w
	}
	q.countUp(t, 1) //dtt:escape-ok -- inlined per-thread counter growth; allocates only on first sight of a thread id
	if int(t) >= len(q.marks) {
		grown := make([][]Entry, len(q.perThread)) //dtt:escape-ok -- per-thread list growth; allocates only on first sight of a thread id
		copy(grown, q.marks)
		q.marks = grown
	}
	q.marks[t] = append(q.marks[t], e) //dtt:escape-ok -- a thread's mark list grows to its largest backlog once and keeps it
}

// TakeMarks removes up to len(out) of thread t's marks, oldest first, into
// out, clears their pending bits and returns how many it took. Every run
// bracket asks once before it releases its token, so the usual answer — no
// marks — is an inlined test.
func (q *ThreadQueue) TakeMarks(t ThreadID, out []Entry) int {
	if int(t) >= len(q.marks) || len(q.marks[t]) == 0 {
		return 0
	}
	return q.takeMarks(t, out)
}

func (q *ThreadQueue) takeMarks(t ThreadID, out []Entry) int {
	ms := q.marks[t]
	k := copy(out, ms)
	for i := range out[:k] {
		clearPending(&out[i])
	}
	n := copy(ms, ms[k:])
	clear(ms[n:])
	q.marks[t] = ms[:n]
	q.perThread[t] -= k
	return k
}

// DropMarks removes all of thread t's marks (tcancel), clears their pending
// bits and returns how many it removed.
func (q *ThreadQueue) DropMarks(t ThreadID) int {
	if int(t) < 0 || int(t) >= len(q.marks) {
		return 0
	}
	ms := q.marks[t]
	for i := range ms {
		clearPending(&ms[i])
	}
	q.marks[t] = ms[:0]
	q.perThread[t] -= len(ms)
	return len(ms)
}

// Seal makes the queue always full: from now on every offer that is not
// squashed overflows, and the entries already queued still dequeue. It is
// the runtime's closed state; a sealed queue stays sealed.
func (q *ThreadQueue) Seal() { q.sealed = true }

// Sealed reports whether Seal was called.
func (q *ThreadQueue) Sealed() bool { return q.sealed }

// Len returns the number of pending entries.
func (q *ThreadQueue) Len() int { return q.n }

// Cap returns the queue capacity.
func (q *ThreadQueue) Cap() int { return q.cap }

// Pending reports whether thread t has any pending entry or mark, in O(1).
func (q *ThreadQueue) Pending(t ThreadID) bool { return q.PendingCount(t) > 0 }

// PendingCount returns how many entries and marks of thread t are pending, in
// O(1).
func (q *ThreadQueue) PendingCount(t ThreadID) int {
	if int(t) < 0 || int(t) >= len(q.perThread) {
		return 0
	}
	return q.perThread[t]
}

// SetClock installs the enqueue timestamp source for Entry.T0. Call it
// before the queue is shared; a nil clock (the default) stamps nothing.
func (q *ThreadQueue) SetClock(clock func() int64) { q.clock = clock }

// Counters returns the queue's lifetime statistics.
func (q *ThreadQueue) Counters() Counters { return q.c }

package queue

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dtt/internal/mem"
)

// qModel is a naive reference implementation of the thread queue: a plain
// slice and linear scans. The property test below drives it in lock step
// with the real ring-buffer implementation and fails on the first
// divergence, so any ring arithmetic or per-thread count bug shows up as a
// concrete operation trace. The model is the dedup oracle: it decides a squash
// by comparing thread and address field by field against every pending entry,
// where the production queue tests one bit of the covering attachment's
// PendingSet, so the test also verifies the bitmap changes no dedup decision.
type qModel struct {
	cap     int
	sealed  bool
	entries []Entry
	c       Counters
}

func (m *qModel) enqueue(t ThreadID, addr mem.Addr) EnqueueStatus {
	for _, e := range m.entries {
		if e.Thread == t && e.Addr == addr {
			m.c.Squashed++
			return Squashed
		}
	}
	if len(m.entries) >= m.cap || m.sealed {
		m.c.Overflowed++
		return Overflowed
	}
	m.entries = append(m.entries, Entry{Thread: t, Addr: addr})
	m.c.Enqueued++
	if len(m.entries) > m.c.Peak {
		m.c.Peak = len(m.entries)
	}
	return Enqueued
}

// enqueueRun models EnqueueRun as one model offer per address, stopping
// after the first that overflows.
func (m *qModel) enqueueRun(t ThreadID, addrs []mem.Addr) (k, enq int, overflowed bool) {
	for _, addr := range addrs {
		k++
		switch m.enqueue(t, addr) {
		case Enqueued:
			enq++
		case Overflowed:
			return k, enq, true
		}
	}
	return k, enq, false
}

func (m *qModel) removeAt(i int) Entry {
	e := m.entries[i]
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
	m.c.Dequeued++
	return e
}

func (m *qModel) dequeue() (Entry, bool) {
	if len(m.entries) == 0 {
		return Entry{}, false
	}
	return m.removeAt(0), true
}

// dequeueRun models DequeueRun: the oldest entry satisfying pred plus the
// entries of the same thread directly behind it, at most max in all.
func (m *qModel) dequeueRun(pred func(Entry) bool, max int) []Entry {
	for i, e := range m.entries {
		if !pred(e) {
			continue
		}
		var run []Entry
		for len(run) < max && i < len(m.entries) && m.entries[i].Thread == e.Thread {
			run = append(run, m.removeAt(i))
		}
		return run
	}
	return nil
}

func (m *qModel) squash(t ThreadID) int {
	kept := m.entries[:0]
	removed := 0
	for _, e := range m.entries {
		if e.Thread == t {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	m.entries = kept
	m.c.SquashedOut += int64(removed)
	return removed
}

func (m *qModel) pendingCount(t ThreadID) int {
	n := 0
	for _, e := range m.entries {
		if e.Thread == t {
			n++
		}
	}
	return n
}

// offer makes a one-offer run of thread t at addr with pending set p and
// returns the queue's verdict on it.
func offer(q *ThreadQueue, t ThreadID, addr mem.Addr, p *PendingSet) EnqueueStatus {
	switch k, enq, overflowed := q.EnqueueRun(t, []mem.Addr{addr}, p); {
	case k != 1:
		panic("offer: a one-offer run took no offer")
	case overflowed:
		return Overflowed
	case enq == 1:
		return Enqueued
	}
	return Squashed
}

// offers stands in for the runtime's attachments in the queue tests: every
// thread is attached over the same ranges (one over the low 64 KiB unless the
// test names others) with a PendingSet of its own per range, and set hands
// out the set of the first range covering an address, as the runtime's
// admission does.
type offers struct {
	ranges [][2]mem.Addr
	sets   map[ThreadID][]PendingSet
}

func (o *offers) set(t ThreadID, addr mem.Addr) *PendingSet {
	if o.ranges == nil {
		o.ranges = [][2]mem.Addr{{0, 1 << 16}}
	}
	if o.sets == nil {
		o.sets = map[ThreadID][]PendingSet{}
	}
	if o.sets[t] == nil {
		for _, r := range o.ranges {
			o.sets[t] = append(o.sets[t], NewPendingSet(r[0], r[1]))
		}
	}
	for i, r := range o.ranges {
		if addr >= r[0] && addr < r[1] {
			return &o.sets[t][i]
		}
	}
	panic("offers: address outside the attached ranges")
}

// enqueue offers (t, addr) as a run of one.
func (o *offers) enqueue(q *ThreadQueue, t ThreadID, addr mem.Addr) EnqueueStatus {
	return offer(q, t, addr, o.set(t, addr))
}

// bitsSet counts the pending bits set across every range of every thread.
func (o *offers) bitsSet() int {
	n := 0
	for _, sets := range o.sets {
		for _, p := range sets {
			for _, w := range p.bits {
				n += bits.OnesCount64(w)
			}
		}
	}
	return n
}

// checkAgainst compares every observable of the real queue with the model,
// and the pending bitmaps with the ring: one set bit per pending entry, and
// no vacated ring slot still pointing into a bitmap.
func (m *qModel) checkAgainst(t *testing.T, q *ThreadQueue, o *offers, step int) {
	t.Helper()
	if q.Len() != len(m.entries) {
		t.Fatalf("step %d: Len() = %d, model has %d", step, q.Len(), len(m.entries))
	}
	for i := range m.entries {
		// A pending entry also holds its bitmap word, which the model lacks.
		if got, want := q.EntryAt(i), m.entries[i]; got.Thread != want.Thread || got.Addr != want.Addr {
			t.Fatalf("step %d: EntryAt(%d) = %+v, model has %+v", step, i, got, want)
		}
	}
	if got := o.bitsSet(); got != q.Len() {
		t.Fatalf("step %d: %d pending bits set with %d entries in the ring", step, got, q.Len())
	}
	held := 0
	for i := range q.ring {
		if q.ring[i].pend != nil {
			held++
		}
	}
	if held != q.Len() {
		t.Fatalf("step %d: %d ring slots hold a bitmap word with %d entries pending", step, held, q.Len())
	}
	for id := ThreadID(0); id < modelThreads; id++ {
		if got, want := q.PendingCount(id), m.pendingCount(id); got != want {
			t.Fatalf("step %d: PendingCount(%d) = %d, model has %d", step, id, got, want)
		}
	}
	if q.Counters() != m.c {
		t.Fatalf("step %d: counters %+v, model has %+v", step, q.Counters(), m.c)
	}
	c := q.Counters()
	if c.Enqueued != c.Dequeued+c.SquashedOut+int64(q.Len()) {
		t.Fatalf("step %d: counter invariant broken: Enqueued=%d Dequeued=%d SquashedOut=%d Len=%d",
			step, c.Enqueued, c.Dequeued, c.SquashedOut, q.Len())
	}
}

const modelThreads = 5

// TestQueueAgainstModel drives the ring-buffer queue and the reference model
// with the same randomized operation stream at each capacity, checking every
// observable and the lifetime-counter invariant
// Enqueued = Dequeued + SquashedOut + Len() after each operation.
func TestQueueAgainstModel(t *testing.T) {
	capacities := []int{1, 2, 3, 8}
	for _, capacity := range capacities {
		capacity := capacity
		name := "per-address/cap" + string(rune('0'+capacity))
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity) * 1007))
			q := NewThreadQueue(capacity)
			m := &qModel{cap: capacity}
			// A small address pool makes dedup hits common; offsets
			// within one line and across lines both occur. Every thread is
			// attached twice, over adjacent ranges that split the pool, and
			// the first range straddles a bitmap-word boundary (base+24).
			const base = pendSpan - 24
			addrs := []mem.Addr{base, base + 8, base + 16, base + mem.LineBytes, base + mem.LineBytes + 8, base + 4*mem.LineBytes}
			o := &offers{ranges: [][2]mem.Addr{{base, base + mem.LineBytes}, {base + mem.LineBytes, base + 5*mem.LineBytes}}}
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(11); {
				case op < 5: // enqueue-heavy keeps the ring near full
					id := ThreadID(rng.Intn(modelThreads))
					addr := addrs[rng.Intn(len(addrs))]
					got := o.enqueue(q, id, addr)
					want := m.enqueue(id, addr)
					if got != want {
						t.Fatalf("step %d: Enqueue(%d, %#x) = %v, model says %v", step, id, addr, got, want)
					}
				case op < 7:
					got, gotOK := q.Dequeue()
					want, wantOK := m.dequeue()
					if got != want || gotOK != wantOK {
						t.Fatalf("step %d: Dequeue() = %+v,%v, model says %+v,%v", step, got, gotOK, want, wantOK)
					}
				case op == 7:
					// Skip one thread, as the immediate backend's
					// busy-thread filter does.
					skip := ThreadID(rng.Intn(modelThreads))
					// A run of up to three: the worker's claim. Runs of
					// one are the common draw with four threads.
					pred := func(e Entry) bool { return e.Thread != skip }
					out := make([]Entry, 1+rng.Intn(3))
					got := out[:q.DequeueRun(pred, out)]
					want := m.dequeueRun(pred, len(out))
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: DequeueRun(!=%d, %d) = %+v, model says %+v", step, skip, len(out), got, want)
					}
				case op == 8:
					if q.Len() == 0 {
						continue
					}
					i := rng.Intn(q.Len())
					got := q.DequeueAt(i)
					want := m.removeAt(i)
					if got != want {
						t.Fatalf("step %d: DequeueAt(%d) = %+v, model says %+v", step, i, got, want)
					}
				case op == 9:
					id := ThreadID(rng.Intn(modelThreads))
					got := q.Squash(id)
					want := m.squash(id)
					if got != want {
						t.Fatalf("step %d: Squash(%d) = %d, model says %d", step, id, got, want)
					}
				default:
					// A batched triggering store: a run of word-stride
					// offers for one thread inside one range, admitted in
					// one EnqueueRun (TStoreBatch), resumed behind each
					// overflow as the runtime does. It must behave exactly
					// like as many single offers, which is what the
					// runtime's counter-identity proof relies on.
					id := ThreadID(rng.Intn(modelThreads))
					first := addrs[rng.Intn(len(addrs))]
					var run []mem.Addr
					for k, n := 0, 1+rng.Intn(4); k < n; k++ {
						if addr := first + mem.Addr(k*mem.WordBytes); o.set(id, addr) == o.set(id, first) {
							run = append(run, addr)
						}
					}
					for len(run) > 0 {
						k, enq, over := q.EnqueueRun(id, run, o.set(id, first))
						wk, wenq, wover := m.enqueueRun(id, run)
						if k != wk || enq != wenq || over != wover {
							t.Fatalf("step %d: EnqueueRun(%d, %#x) = (%d, %d, %v), model says (%d, %d, %v)",
								step, id, run, k, enq, over, wk, wenq, wover)
						}
						run = run[k:]
					}
				}
				m.checkAgainst(t, q, o, step)
			}
		})
	}
}

// TestEnqueueRunAgainstModel drives EnqueueRun in lock step with the model,
// one model offer per address: random runs of 1–64 addresses of one thread
// inside one attached range, mostly ascending and with repeats (a run
// squashes into itself), into rings small enough that runs overflow mid-run
// and resume — sometimes after a claim made room — and, for the last quarter
// of each stream, into a sealed queue. The ring, the pending bits, the
// counters and the returned (k, enq, overflowed) must match the model after
// every call.
func TestEnqueueRunAgainstModel(t *testing.T) {
	for _, capacity := range []int{1, 5, 24, 100} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity) * 31))
			q := NewThreadQueue(capacity)
			m := &qModel{cap: capacity}
			// Two ranges per thread; the first straddles a bitmap-word
			// boundary.
			const base = pendSpan - 24
			o := &offers{ranges: [][2]mem.Addr{
				{base, base + 48*mem.WordBytes},
				{base + 48*mem.WordBytes, base + 160*mem.WordBytes},
			}}
			claim := func(step int) {
				skip := ThreadID(rng.Intn(modelThreads))
				pred := func(e Entry) bool { return e.Thread != skip }
				out := make([]Entry, 1+rng.Intn(16))
				got := out[:q.DequeueRun(pred, out)]
				if want := m.dequeueRun(pred, len(out)); !slices.Equal(got, want) {
					t.Fatalf("step %d: DequeueRun(!=%d, %d) = %+v, model says %+v", step, skip, len(out), got, want)
				}
			}
			const steps = 3000
			for step := 0; step < steps; step++ {
				if step == steps*3/4 {
					q.Seal()
					m.sealed = true
				}
				switch op := rng.Intn(8); {
				case op < 5:
					id := ThreadID(rng.Intn(modelThreads))
					r := o.ranges[rng.Intn(len(o.ranges))]
					words := int((r[1] - r[0]) / mem.WordBytes)
					run := make([]mem.Addr, 1+rng.Intn(64))
					start := rng.Intn(words)
					for i := range run {
						w := (start + i) % words
						if rng.Intn(4) == 0 {
							w = rng.Intn(words)
						}
						run[i] = r[0] + mem.Addr(w)*mem.WordBytes
					}
					p := o.set(id, run[0])
					for len(run) > 0 {
						k, enq, over := q.EnqueueRun(id, run, p)
						wk, wenq, wover := m.enqueueRun(id, run)
						if k != wk || enq != wenq || over != wover {
							t.Fatalf("step %d: EnqueueRun(%d, %#x) = (%d, %d, %v), model says (%d, %d, %v)",
								step, id, run, k, enq, over, wk, wenq, wover)
						}
						m.checkAgainst(t, q, o, step)
						run = run[k:]
						if over && rng.Intn(2) == 0 {
							claim(step)
						}
					}
				case op < 7:
					claim(step)
				default:
					id := ThreadID(rng.Intn(modelThreads))
					if got, want := q.Squash(id), m.squash(id); got != want {
						t.Fatalf("step %d: Squash(%d) = %d, model says %d", step, id, got, want)
					}
				}
				m.checkAgainst(t, q, o, step)
			}
			if c := q.Counters(); c.Enqueued == 0 || c.Squashed == 0 || c.Overflowed == 0 {
				t.Fatalf("the stream missed an outcome: %+v", c)
			}
		})
	}
}

// TestQueueModelDrain empties a full queue through each removal path and
// checks the counters balance exactly.
func TestQueueModelDrain(t *testing.T) {
	q := NewThreadQueue(4)
	o := offers{}
	for i := 0; i < 6; i++ { // 4 admitted, 2 overflowed
		o.enqueue(q, ThreadID(i%2), mem.Addr(8*i))
	}
	q.DequeueAt(1)
	q.Dequeue()
	if n := q.Squash(0); n != 1 {
		t.Fatalf("Squash(0) removed %d entries, want 1", n)
	}
	q.Dequeue()
	c := q.Counters()
	want := Counters{Enqueued: 4, Overflowed: 2, Dequeued: 3, SquashedOut: 1, Peak: 4}
	if c != want {
		t.Fatalf("counters %+v, want %+v", c, want)
	}
	if c.Enqueued != c.Dequeued+c.SquashedOut+int64(q.Len()) {
		t.Fatalf("counter invariant broken: %+v with Len %d", c, q.Len())
	}
}

package core

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/sched"
)

// attachment is one attached trigger range of a thread, with the pending bit
// of each of its words: pend is the attachment's share of the thread queue's
// pending set (see queue.PendingSet), guarded like atts by the dispatch lock.
type attachment struct {
	region *Region
	lo, hi mem.Addr
	pend   queue.PendingSet
}

// threadEntry is the runtime's per-thread record: the registered body, the
// thread's trigger ranges, the thread's run token and its row of the thread
// queue status table. The token serialises instances of one thread (the
// paper's one-instance-at-a-time rule) without involving any other thread:
// workers executing different threads only meet on the dispatch lock for
// queue operations, never on each other's tokens.
//
// name and fn are immutable after Register. atts, the status row and the
// token/waiter fields are guarded by the dispatch lock (rt.d.mu); Attach
// and Cancel additionally hold rt.mu to serialise against registry
// mutations.
type threadEntry struct {
	name string
	fn   ThreadFunc
	atts []attachment

	// labels is the pprof label context of this thread's instances, nil
	// with telemetry off (see observers.register). Immutable after
	// Register.
	labels context.Context

	// running is the run token, held while it is non-zero: the number of
	// instances of this thread executing (queue-dispatched or inline). It
	// exceeds one only when a cascading trigger that overflowed the queue
	// re-enters its own thread's body, nested and therefore still serial.
	// owner is the goroutine id of the token holder on the immediate
	// backend, so such a cascade can recognise itself and recurse instead
	// of deadlocking on its own token.
	running int
	owner   uint64

	// The thread's row of the status table (TQST). The pending column is the
	// ring's own rt.d.tq.PendingCount(t), not a second counter. dispatched is
	// the running column: entries a run bracket took off the ring and has not
	// settled, so it is non-zero only while running is. An inline overflow
	// run holds the token without showing here — Running means a
	// queue-dispatched instance. lastFailed colours the idle state
	// StatusFailed until a queue-dispatched instance succeeds. The row goes
	// with a retired entry, so a recycled ThreadID starts with a fresh history.
	dispatched int   //dtt:guards dispatcher.mu
	executed   int64 //dtt:guards dispatcher.mu
	failed     int64 //dtt:guards dispatcher.mu
	lastFailed bool  //dtt:guards dispatcher.mu

	// cancelEpoch counts Cancels of this thread. A worker snapshots it when
	// it claims a run of the thread's entries and re-reads it with one
	// atomic load before each body: a Cancel landing mid-run bumps it under
	// the dispatch lock, and the unstarted rest of the run is dropped rather
	// than executed after the tcancel. Written (atomically) only under the
	// dispatch lock, so a plain read under that lock is exact.
	cancelEpoch uint32 //dtt:guards dispatcher.mu

	// tokenWaiters are woken when no instance of this thread is executing
	// (the run token is free): inline overflow runners sleep here.
	// quietWaiters are woken when the thread is quiet (quietLocked): Wait
	// sleeps here. Both are targeted wakeups — only goroutines interested
	// in this thread are woken.
	tokenWaiters []chan struct{}
	quietWaiters []chan struct{}
}

// entryOf returns t's record in thread-table snapshot ths, or nil when no
// thread was ever registered under t.
func entryOf(ths []*threadEntry, t ThreadID) *threadEntry {
	if int(t) < 0 || int(t) >= len(ths) {
		return nil
	}
	return ths[t]
}

// attachmentAt returns the first of the thread's attached trigger ranges
// containing addr, or nil. Callers hold the dispatch lock; a nil result
// after a matching registry snapshot means a Cancel raced the store.
func (te *threadEntry) attachmentAt(addr mem.Addr) *attachment {
	for i := range te.atts {
		if a := &te.atts[i]; addr >= a.lo && addr < a.hi {
			return a
		}
	}
	return nil
}

// attachmentNear is attachmentAt for a run of lookups on one thread inside one
// critical section: hint is what the run's previous lookup returned (nil for
// the first), and the search is skipped when hint still answers. The answer
// must be the FIRST covering attachment — its pending bit is the dedup key
// where a thread's ranges overlap — so only atts[0], which nothing precedes,
// is reused: a later attachment covering addr proves nothing about earlier ones.
func (te *threadEntry) attachmentNear(hint *attachment, addr mem.Addr) *attachment {
	if hint != nil && hint == &te.atts[0] && addr >= hint.lo && addr < hint.hi {
		return hint
	}
	return te.attachmentAt(addr)
}

// dispatcher is the dispatch plane, one per runtime as the paper's hardware
// has one thread queue and one status table: the ring-buffer thread queue
// (whose status rows sit in each threadEntry, under this lock), the trigger
// counters, the quiescence count and the Barrier waiters. One mutex guards
// all of it. Its 128 bytes fill two whole cache lines, so the dispatch lock
// and busy count share no line with another allocation.
type dispatcher struct {
	mu sync.Mutex
	tq *queue.ThreadQueue
	// c are the trigger counters, guarded by mu, so a Stats snapshot taken
	// under it is torn-free (see dispatchStats).
	c dispatchStats
	// busy is the quiescence count, the only one: tq.Len() plus the
	// dispatched entries plus the inline overflow runs in flight, a plain
	// number under mu. work is busy != 0 for the workers' lock-free check,
	// which parks without locking when it reads false. addBusy stores it
	// only when busy crosses zero, so a producer ahead of the worker pays
	// nothing locked.
	busy int64 //dtt:guards dispatcher.mu
	work atomic.Bool
	// barrierWaiters are woken when busy reaches zero: Barrier sleeps here.
	barrierWaiters []chan struct{} //dtt:guards dispatcher.mu
	// spare holds sleepLocked's empty wake channels, for reuse.
	spare []chan struct{} //dtt:guards dispatcher.mu
}

// addBusy moves the quiescence count by n and keeps work equal to
// busy != 0, storing it only when it changes. Callers hold d.mu.
func (d *dispatcher) addBusy(n int64) {
	d.busy += n
	if idle := d.busy == 0; idle == d.work.Load() {
		d.work.Store(!idle)
	}
}

// sleepLocked is the one way to sleep on the dispatch lock, called by the
// twait, tbarrier and run-token joins in a loop over their predicate.
// Entered with d.mu held, it parks on waiters until wakeAll empties that
// list, and returns with d.mu held. Its cap-1 channel comes from d.spare and
// is made only when that list is empty. wakeAll sends on it instead of
// closing it, and the sleeper returns it to d.spare only after receiving
// that send, so a recycled channel never carries a stale wakeup: a sleeper
// that leaves without receiving must never put its channel back.
func (d *dispatcher) sleepLocked(waiters *[]chan struct{}) {
	var ch chan struct{}
	if n := len(d.spare); n > 0 {
		ch = d.spare[n-1]
		d.spare = d.spare[:n-1]
	} else {
		ch = make(chan struct{}, 1)
	}
	*waiters = append(*waiters, ch)
	d.mu.Unlock()
	<-ch
	d.mu.Lock()
	d.spare = append(d.spare, ch)
}

// Runtime is a data-triggered threads runtime instance.
//
// The main thread (the goroutine that created the runtime) allocates
// regions, registers and attaches threads, performs triggering stores and
// synchronises with Wait/Barrier. With BackendImmediate, support threads run
// concurrently on worker goroutines; the programming model requires — as
// the paper's does — that the main thread not access a support thread's
// output between the trigger and the matching Wait.
//
// # Lock hierarchy
//
// The hot path is layered so a triggering store pays only for what it uses
// (see DESIGN.md "Runtime lock hierarchy"):
//
//  1. No lock: the value comparison in mem.Buffer.Store, the stats
//     counters (atomic), the Snapshot.Prefix probe against the
//     registry's immutable index snapshot, and the thread table (an
//     atomically published copy-on-write slice). Silent stores and stores
//     to unattached addresses finish here and never contend.
//  2. The dispatch lock (dispatcher.mu): the thread queue, the
//     per-thread records — status row and run token — and the quiescence
//     count. A store that fires takes it once, and only for pointer-sized
//     bookkeeping, never across a thread body.
//  3. rt.mu, the management lock: Register/Attach/Cancel/Close and registry
//     mutations. Never taken on the store path. Lock order is rt.mu →
//     the dispatch lock → leaf locks (batchMu, recording.mu); the reverse
//     order is never taken.
type Runtime struct {
	cfg Config
	sys *mem.System

	// reg is read lock-free on the store fast path; mutations happen under
	// rt.mu and publish a fresh snapshot (see queue.Registry).
	reg *queue.Registry

	// threads is the copy-on-write thread table: readers load the current
	// snapshot lock-free; Register appends under rt.mu and publishes a
	// fresh slice. Entries are never removed or reordered, so an ID valid
	// in any snapshot stays valid in every later one.
	threads atomic.Pointer[[]*threadEntry]

	// d is the dispatch plane: the thread queue and everything its lock
	// guards, in an allocation of its own.
	d *dispatcher

	// mu is the management lock: Register/Attach/Cancel/Close and registry
	// mutations. The store fast path never takes it.
	mu sync.Mutex

	// wake is where idle immediate-backend workers sleep, and parked counts
	// the workers that have announced they are about to (see worker for the
	// protocol and wakeWorker for the ordering argument). Capacity is one
	// token per worker, so a send to a parked worker is never dropped for
	// lack of room unless every worker already has a wakeup coming. The
	// channel is never closed: Close sets the closed flag and deposits one
	// token per worker. nil on the single-goroutine backends, where parked
	// stays zero: wake != nil is how the runtime asks which of the two
	// execution models it is.
	wake   chan struct{}
	parked atomic.Int32

	closed atomic.Bool
	wg     sync.WaitGroup

	// obs are the observers — sanitizer, telemetry, recorder — behind the
	// hooks of observe.go. The sanitizer carries its own lock and never
	// calls back into the runtime, so hooks may run with or without runtime
	// locks held.
	obs observers
	// sched is the schedule drain picks by, BackendSeeded's; nil means FIFO.
	// Only the runtime's single driving goroutine consults it.
	sched *sched.Scheduler
	// elig is the reusable eligible-entry scratch of a scheduled pick: queue
	// indices. Only the single driving goroutine touches it, with the
	// dispatch lock held.
	elig []int

	// batchMu/batchFree recycle tstoreBatch's grouping scratch. Unlike
	// elig the scratch must serve concurrent producers, so it is a free
	// list of private scratch structs rather than a single runtime-owned
	// slice. A mutex-guarded list rather than a sync.Pool on purpose: the
	// pool's victim cache empties on GC, which would put stray
	// allocations back on a path that contracts to 0 allocs/op. The two
	// lock acquisitions are per batch, amortized over the whole span.
	batchMu   sync.Mutex
	batchFree []*batchScratch //dtt:guards batchMu

	// updPlanes is the copy-on-write list of regions with an armed
	// privatized update plane: readers (Wait/Barrier merge points, Stats)
	// load it lock-free; armUpdates appends under rt.mu. Planes of freed
	// regions are removed by releaseRegionLocked.
	updPlanes atomic.Pointer[[]*updatePlane]

	// freeIDs are thread-table slots recycled by retireThreadLocked;
	// Register reuses them before growing the table. Guarded by rt.mu.
	freeIDs []ThreadID //dtt:guards mu

	// metricsSrv serves /metrics and /debug/vars when Config.MetricsAddr
	// is set; metricsAddr is the bound listen address (resolved, so
	// ":0"-style configs report the real port).
	metricsSrv  *http.Server
	metricsAddr string

	stats statsCounters
}

// New builds a Runtime from cfg.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	rt := &Runtime{
		cfg: cfg,
		sys: mem.NewSystem(),
		reg: queue.NewRegistry(),
	}
	empty := make([]*threadEntry, 0)
	rt.threads.Store(&empty)
	rt.d = &dispatcher{tq: queue.NewThreadQueue(cfg.QueueCapacity)}
	if err := rt.attachObservers(); err != nil {
		return nil, err
	}
	if cfg.Backend == BackendSeeded {
		rt.sched = sched.New(cfg.SchedSeed)
	}
	if cfg.Backend == BackendImmediate {
		rt.wake = make(chan struct{}, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			rt.wg.Add(1)
			go rt.worker()
		}
	}
	return rt, nil
}

// threadsSnap returns the current thread-table snapshot. The result is
// immutable; callers needing consistency with the queue's contents must
// load it after acquiring the dispatch lock.
func (rt *Runtime) threadsSnap() []*threadEntry { return *rt.threads.Load() }

// System returns the runtime's address space.
func (rt *Runtime) System() *mem.System { return rt.sys }

// MetricsAddr returns the metrics exporter's bound listen address, or "" when
// Config.MetricsAddr was empty. A config of "127.0.0.1:0" resolves here to
// the real ephemeral port.
func (rt *Runtime) MetricsAddr() string { return rt.metricsAddr }

// Config returns the configuration the runtime was built with, after
// defaulting.
func (rt *Runtime) Config() Config { return rt.cfg }

// NewRegion allocates a region of n words in the runtime's address space.
// Allocation is serialised under rt.mu: mem.System carries no lock of its
// own, and the serving plane creates regions from concurrent sessions.
func (rt *Runtime) NewRegion(name string, n int) *Region {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return &Region{rt: rt, buf: rt.sys.AllocShared(name, n)}
}

// Register records a support thread body under name and returns its ID.
// Slots retired by Namespace.Close are reused before the table grows, so
// steady session churn keeps the thread table at a fixed size.
func (rt *Runtime) Register(name string, fn ThreadFunc) ThreadID {
	if fn == nil {
		panic("core: Register with nil ThreadFunc")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := rt.threadsSnap()
	id := ThreadID(len(old)) // grow the table, unless a retired slot is free
	if n := len(rt.freeIDs); n > 0 {
		id = rt.freeIDs[n-1]
		rt.freeIDs = rt.freeIDs[:n-1]
	}
	grown := make([]*threadEntry, max(len(old), int(id)+1))
	copy(grown, old)
	grown[id] = &threadEntry{name: name, fn: fn, labels: rt.obs.register(id, name)}
	rt.threads.Store(&grown)
	return id
}

// ThreadName returns the name thread t was registered under.
func (rt *Runtime) ThreadName(t ThreadID) string {
	if te := entryOf(rt.threadsSnap(), t); te != nil {
		return te.name
	}
	return fmt.Sprintf("thread-%d", t)
}

// Attach arms thread t to trigger on stores to words [lo, hi) of r. This is
// the tspawn registration instruction.
func (rt *Runtime) Attach(t ThreadID, r *Region, lo, hi int) error {
	if r == nil || r.rt != rt {
		return fmt.Errorf("core: Attach to a region of a different runtime")
	}
	if lo < 0 || hi > r.Len() || lo >= hi {
		return fmt.Errorf("core: Attach range [%d, %d) outside region %q of %d words", lo, hi, r.Name(), r.Len())
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ths := rt.threadsSnap()
	if int(t) < 0 || int(t) >= len(ths) {
		return fmt.Errorf("core: Attach of unregistered thread %d", t)
	}
	loA, hiA := r.buf.Addr(lo), r.buf.Addr(hi)
	if err := rt.reg.Attach(t, loA, hiA); err != nil {
		return err
	}
	te := ths[t]
	rt.d.mu.Lock()
	te.atts = append(te.atts, attachment{region: r, lo: loA, hi: hiA, pend: queue.NewPendingSet(loA, hiA)})
	rt.d.mu.Unlock()
	rt.obs.attach(t, loA, hiA)
	return nil
}

// AllowWrites declares words [lo, hi) of r a legal output window of thread
// t for the protocol sanitizer. Write confinement is opt-in per thread:
// once any window is granted, CheckStrict confines t's writes to its
// attached trigger windows plus its granted output windows and reports any
// other write as a write-escape violation. A thread with no grants is not
// confined (its outputs are undeclared). With the checker off this is a
// no-op (the declaration is still validated).
func (rt *Runtime) AllowWrites(t ThreadID, r *Region, lo, hi int) error {
	if r == nil || r.rt != rt {
		return fmt.Errorf("core: AllowWrites on a region of a different runtime")
	}
	if lo < 0 || hi > r.Len() || lo >= hi {
		return fmt.Errorf("core: AllowWrites range [%d, %d) outside region %q of %d words", lo, hi, r.Name(), r.Len())
	}
	rt.obs.grant(t, r.buf.Addr(lo), r.buf.Addr(hi))
	return nil
}

// Cancel detaches thread t and squashes its pending instances (tcancel).
// It takes the management lock and then the dispatch lock.
func (rt *Runtime) Cancel(t ThreadID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	te := entryOf(rt.threadsSnap(), t)
	d := rt.d
	d.mu.Lock()
	rt.obs.cancel(t, te)
	rt.reg.Detach(t)
	if te != nil {
		te.atts = nil
		// Stop a worker's claimed run of t before its next body.
		atomic.AddUint32(&te.cancelEpoch, 1)
	}
	if n := d.tq.Squash(t); n > 0 {
		d.addBusy(int64(-n))
	}
	rt.stats.cancels.Add(1)
	// Squashing may have made t — or the whole runtime — quiet.
	rt.finishLocked(te, t)
	d.mu.Unlock()
}

// retireThreadLocked recycles cancelled thread t's table slot: the entry
// is replaced by an inert tombstone (dropping the registered closure and
// whatever it captured) and the ID goes on the free list for the next
// Register, so steady namespace churn keeps the thread table at a fixed
// size. The tombstone also carries a blank status row, so the ID's next
// owner starts with a fresh history. Only a quiet thread with no
// attachments retires; otherwise the slot is left as-is and the call
// reports false (a still-running instance finishes against the old entry it
// captured). Callers hold rt.mu.
func (rt *Runtime) retireThreadLocked(t ThreadID) bool {
	ths := rt.threadsSnap()
	te := entryOf(ths, t)
	if te == nil {
		return false
	}
	rt.d.mu.Lock()
	quiet := rt.d.quietLocked(te, t) && len(te.atts) == 0
	rt.d.mu.Unlock()
	if !quiet {
		return false
	}
	grown := make([]*threadEntry, len(ths))
	copy(grown, ths)
	grown[t] = &threadEntry{name: te.name + " (retired)"}
	rt.threads.Store(&grown)
	rt.freeIDs = append(rt.freeIDs, t)
	rt.obs.retire(t)
	return true
}

// drainThread blocks until thread t has no pending or running instance:
// the quiescence loop of Wait on the immediate backend, without Wait's
// merge point, join edge or stats. The predicate (quietLocked) is O(1)
// against t's own state — it never scans the queue — and the waiter sleeps
// on t's own waiter list, so completions of other threads do not wake it.
// Namespace.Close also calls it, on every backend, after Cancel, to let an
// in-flight instance finish before the namespace's regions are freed — a
// cancelled instance keeps executing against the entries it captured, and a
// store it issues through a freed region would land in an address range the
// arena may already have handed to another tenant. On the single-goroutine
// backends a running instance cannot coexist with the caller, so the
// predicate holds immediately. Must not be called with rt.mu or the
// dispatch lock held, nor from a support-thread body of t.
func (rt *Runtime) drainThread(t ThreadID) {
	d := rt.d
	d.mu.Lock()
	for {
		te := entryOf(rt.threadsSnap(), t)
		if te == nil || d.quietLocked(te, t) {
			break
		}
		d.sleepLocked(&te.quietWaiters)
	}
	d.mu.Unlock()
}

// releaseRegionLocked returns r's backing range to the arena free list and
// removes its update plane (if armed) from the merge set. The caller must
// guarantee that no further accesses through r happen and that no thread
// is attached inside it — Namespace.Close cancels its threads first.
// Callers hold rt.mu.
func (rt *Runtime) releaseRegionLocked(r *Region) {
	if u := r.upd.Load(); u != nil {
		// Fold the plane's lifetime op count into the retired counter so
		// Stats.TUpdates stays monotone once the plane leaves the live set.
		rt.stats.retiredUpdates.Add(u.plane.Ops())
		if ps := rt.updPlanes.Load(); ps != nil {
			pruned := make([]*updatePlane, 0, len(*ps))
			for _, p := range *ps {
				if p != u {
					pruned = append(pruned, p)
				}
			}
			rt.updPlanes.Store(&pruned)
		}
		// Kill the plane under its merge lock BEFORE freeing the range: a
		// concurrent mergeAllPlanes (another session's Wait/Barrier) may
		// hold a pre-prune updPlanes snapshot, and blocking it out here —
		// then having mergePlane re-check dead under the same lock — is
		// what keeps its merge from storing into the freed range. Pending
		// deltas are discarded, not merged: the session is gone and nothing
		// may observe its memory again. Taking mergeMu under rt.mu is safe
		// because a mergeMu holder never acquires rt.mu (see the lock-order
		// note in update.go).
		u.mergeMu.Lock()
		u.dead = true
		u.plane.Discard()
		u.mergeMu.Unlock()
	}
	rt.sys.Free(r.buf)
	rt.obs.free(r.buf.Base(), r.buf.Addr(r.buf.Len()))
}

// tstore is the scalar triggering write behind Region.TStore and TStoreF: the
// compare-and-store, the write hook, and for a changed word inside a trigger
// range one fireOne per attached thread. It reports whether the word changed.
//
// The fast paths are allocation-free and ordered cheapest-first: a silent
// store is one atomic load; a changing store to an unattached address adds
// the swap and a lock-free index probe (two comparisons when the address is
// far from every trigger range), either plus its counter's atomic add; only a
// changing store inside a trigger range takes a lock — the dispatch lock, for
// the enqueue bookkeeping — and counts itself under it: three locked
// instructions, the swap, the lock and the unlock.
func (rt *Runtime) tstore(r *Region, i int, v mem.Word) bool {
	g := rt.obs.checkGoid()
	changed := r.buf.Store(i, v)
	rt.obs.write(r, i, changed, g)
	if !changed {
		rt.stats.silent.Add(1)
		return false
	}
	addr := r.buf.Addr(i)
	var inline []queue.Entry
	counted := false
	for _, a := range rt.reg.Snapshot().Prefix(addr) {
		if addr < a.Hi {
			rt.fireOne(a.Thread, addr, g, &inline, !counted)
			counted = true
		}
	}
	if !counted {
		rt.stats.changing.Add(1)
	}
	rt.afterWrite(inline)
	return true
}

// afterWrite is the tail of every changing triggering write, run with no
// lock held: the overflowed triggers the write collected execute inline in
// the writer, and then the write is a preemption point — the deterministic
// scheduler may dispatch any number of pending instances. A batch or a merge
// is ONE preemption point, at its end, however many words it wrote.
func (rt *Runtime) afterWrite(inline []queue.Entry) {
	for _, e := range inline {
		rt.runInline(e)
	}
	if rt.sched != nil {
		rt.drain(false)
	}
}

// admitLocked is pipeline stage two, admission: it offers one fired
// (thread, addr) trigger to the thread queue and is the only writer of the
// Fired = Enqueued + Squashed + Overflowed identity — fired moves here and
// exactly one decomposition counter inside tq.Enqueue (the queue's counters
// are the admission counters), whose only call site this is, in one critical
// section, so the identity holds under the dispatch lock at all times.
// Callers hold rt.d.mu and pass a, what attachmentAt answers for addr on
// id's record under that lock: its pending set is the dedup key. A nil a is a
// trigger whose range a concurrent Cancel detached between the registry
// snapshot and this lock: it never happened, and reports Squashed, like a
// squash leaving nothing to settle. An overflowed trigger is appended to
// inline for the caller to run after its dispatch completes — never with the
// dispatch lock held. On Enqueued the caller owes the queue its settlement —
// the busy count, a queue-depth sample and a worker wakeup — which stays with
// the caller because the two dispatch shapes differ exactly there: fireOne
// settles per entry, dispatchFired once per write, and a shared helper
// measured 4% of a scalar round on the immediate backend.
func (rt *Runtime) admitLocked(a *attachment, id ThreadID, addr mem.Addr, g uint64, inline *[]queue.Entry) queue.EnqueueStatus {
	if a == nil {
		return queue.Squashed
	}
	rt.d.c.fired++
	st := rt.d.tq.Enqueue(id, addr, &a.pend)
	if st == queue.Overflowed {
		*inline = append(*inline, queue.Entry{Thread: id, Addr: addr})
	}
	rt.obs.admit(g, id, addr, st)
	return st
}

// fireOne admits one fired trigger under the dispatch lock: the
// scalar-shaped dispatch, one lock acquisition per (store, thread) pair. A
// store's first pair also counts the store (counts), under the lock it takes
// anyway.
func (rt *Runtime) fireOne(id queue.ThreadID, addr mem.Addr, g uint64, inline *[]queue.Entry, counts bool) {
	// The thread table is loaded after the registry snapshot, so an id
	// the registry knows is always in range here.
	te := rt.threadsSnap()[id]
	d := rt.d
	d.mu.Lock()
	if counts {
		d.c.changing++
	}
	if rt.admitLocked(te.attachmentAt(addr), id, addr, g, inline) == queue.Enqueued {
		d.addBusy(1)
		rt.obs.queueDepth(d.tq)
		rt.wakeWorker()
	}
	d.mu.Unlock()
}

// firedTrigger is one (thread, trigger address) pair a batch or a merge
// collected for dispatch.
type firedTrigger struct {
	id   queue.ThreadID
	addr mem.Addr
}

// batchScratch is the per-call working set of a batch or a merge: the fired
// pairs collected during the write phase. Instances live on the
// Runtime.batchFree list; slices keep their capacity across calls, so a
// warmed scratch serves any batch the program repeats without allocating.
type batchScratch struct {
	fired  []firedTrigger
	inline []queue.Entry
	// cands holds the attachments overlapping the write's span — a batch's
	// words, a merge's region — resolved once per write, by begin.
	cands []queue.Attachment
}

func (sc *batchScratch) begin(snap queue.Snapshot, lo, hi mem.Addr) {
	sc.fired = sc.fired[:0]
	sc.inline = sc.inline[:0]
	sc.cands = snap.Overlapping(lo, hi, sc.cands[:0])
}

// fire records a fired pair for each of sc.cands covering changed word addr.
// Candidates are in index order, so the pairs are the matches a per-word
// registry lookup would produce, in its order.
func (sc *batchScratch) fire(addr mem.Addr) {
	for _, a := range sc.cands {
		if a.Lo <= addr && addr < a.Hi {
			sc.fired = append(sc.fired, firedTrigger{id: a.Thread, addr: addr})
		}
	}
}

// getScratch pops a warmed scratch off the free list, or makes a fresh one
// the first time a producer batches (the free list retains it afterwards).
func (rt *Runtime) getScratch() *batchScratch {
	rt.batchMu.Lock()
	if n := len(rt.batchFree); n > 0 {
		sc := rt.batchFree[n-1]
		rt.batchFree = rt.batchFree[:n-1]
		rt.batchMu.Unlock()
		return sc
	}
	rt.batchMu.Unlock()
	return new(batchScratch)
}

func (rt *Runtime) putScratch(sc *batchScratch) {
	rt.batchMu.Lock()
	rt.batchFree = append(rt.batchFree, sc)
	rt.batchMu.Unlock()
}

// tstoreBatch is the batched triggering store behind Region.TStoreBatch and
// Region.TStoreRange: semantically len(vs) scalar tstores, with the
// dispatch overhead amortized over the span. It returns how many words
// changed.
//
// The batch runs in two phases. The write phase performs the word-at-a-time
// atomic compares and resolves every changed word against ONE registry
// snapshot — all words of a batch see the same attachment set, so a
// concurrent Attach/Detach orders entirely before or after the batch. The
// dispatch phase is dispatchFired.
//
// On the seeded backend the whole batch is a single preemption point at
// its end — the deterministic scheduler cannot observe a half-written
// span. The scratch comes from the rt.batchFree list, keeping the
// steady-state path at 0 allocs/op for silent, squashed and enqueueing
// batches alike.
func (rt *Runtime) tstoreBatch(r *Region, lo int, vs []mem.Word) int {
	if len(vs) == 0 {
		return 0
	}
	if lo < 0 || lo+len(vs) > r.buf.Len() {
		panic(fmt.Sprintf("core: TStoreBatch [%d, %d) out of range of %q (%d words)",
			lo, lo+len(vs), r.Name(), r.buf.Len()))
	}
	g := rt.obs.checkGoid()
	sc := rt.getScratch()
	// One index resolution for the whole span: per word, trigger matching is
	// then an interval test against the (usually zero or one) candidates.
	sc.begin(rt.reg.Snapshot(), r.buf.Addr(lo), r.buf.Addr(lo+len(vs)))
	changed := 0
	for j, v := range vs {
		wrote := r.buf.Store(lo+j, v)
		rt.obs.write(r, lo+j, wrote, g)
		if wrote {
			changed++
			sc.fire(r.buf.Addr(lo + j))
		}
	}
	if silent := len(vs) - changed; silent > 0 {
		rt.stats.silent.Add(int64(silent))
	}
	if changed > 0 {
		rt.stats.changing.Add(int64(changed))
	}
	rt.obs.batchSize(len(vs))

	rt.dispatchFired(sc, g)
	if changed > 0 {
		rt.afterWrite(sc.inline)
	}
	rt.putScratch(sc)
	return changed
}

// dispatchFired is the batch-shaped dispatch phase, stages three and 3a of
// the pipeline for a write that collected its fired pairs first: a batch's
// span or a merge's words. It takes the dispatch lock exactly once for all
// of them. Within the critical section each pair still moves fired plus
// exactly one of enqueued/squashed/overflowed through admitLocked, so the
// identity Fired = Enqueued + Squashed + Overflowed holds at every instant,
// exactly as for scalar tstores; the thread record and attachment are
// resolved once per run of one thread's pairs, and busy, the queue-depth
// sample and the worker wakeup settle once per write rather than once per
// entry. Overflowed pairs land in sc.inline for the caller's afterWrite.
func (rt *Runtime) dispatchFired(sc *batchScratch, g uint64) {
	if len(sc.fired) == 0 {
		return
	}
	// The thread table is loaded after the registry lookups that produced
	// the pairs, so every id in them is in range.
	ths := rt.threadsSnap()
	d := rt.d
	enqueued := 0
	var te *threadEntry
	var a *attachment
	d.mu.Lock()
	for _, ft := range sc.fired {
		if ths[ft.id] != te { // a new run of one thread's pairs
			te, a = ths[ft.id], nil
		}
		a = te.attachmentNear(a, ft.addr)
		if rt.admitLocked(a, ft.id, ft.addr, g, &sc.inline) == queue.Enqueued {
			enqueued++
		}
	}
	if enqueued > 0 {
		d.addBusy(int64(enqueued))
		// One depth sample per write: the depth after its admissions, not
		// one sample per entry.
		rt.obs.queueDepth(d.tq)
		rt.wakeWorker()
	}
	d.mu.Unlock()
}

// wakeWorker offers newly dispatchable work to a parked worker, if there is
// one; with every worker awake it is one atomic load, because a worker
// re-scans before it parks. Callers hold the dispatch lock under which they
// made the work visible — the enqueue and the addBusy, or the token release
// — and call this after it. That order is the whole argument: the producer
// raises the work flag (or finds it raised, and then whoever lowers it does
// so under this lock, later, with this entry settled) and then loads parked;
// a worker adds itself to parked and then loads the flag (runClaims), locking
// the queue when it reads true. Both are sync/atomic, hence sequentially
// consistent, so one of the two sees the other: either this load sees the
// worker parked and sends, or the worker's flag load sees the work and its
// locked claim — ordered after this critical section by the dispatch lock —
// finds it. The send cannot block and is dropped only when the buffer
// already holds a token per worker: every parked one is about to wake.
func (rt *Runtime) wakeWorker() {
	if rt.parked.Load() == 0 {
		return
	}
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// quietLocked is the twait release condition, spelled once: thread t, whose
// record is te, has no pending entry and no instance in flight. The run token
// covers every instance in flight, dispatched or inline, so "token free" is
// te.running == 0 alone. A failed thread is quiet: twait must not wait on a
// thread that will never run again. Callers hold d.mu.
func (d *dispatcher) quietLocked(te *threadEntry, t ThreadID) bool {
	return te.running == 0 && !d.tq.Pending(t)
}

// finishLocked propagates the consequences of thread t's activity
// dropping: it frees t's run token waiters, completes Wait waiters whose
// predicate became true, and completes Barrier waiters once the quiescence
// count is zero (te is nil when a Cancel names an id never registered).
// Re-offering t's skipped queue entries is the finisher's business — a
// worker re-claims itself, an inline run wakes one (endRunLocked). Callers
// hold rt.d.mu.
func (rt *Runtime) finishLocked(te *threadEntry, t ThreadID) {
	d := rt.d
	if te != nil && te.running == 0 {
		wakeAll(&te.tokenWaiters)
		if len(te.quietWaiters) > 0 && d.quietLocked(te, t) {
			wakeAll(&te.quietWaiters)
		}
	}
	if d.busy == 0 {
		wakeAll(&d.barrierWaiters)
	}
}

// wakeAll sends once on each sleepLocked channel in waiters — never
// blocking, since a channel is on one list at a time and only this send
// fills it — and empties the list, keeping its backing array. Callers hold
// the dispatch lock.
func wakeAll(waiters *[]chan struct{}) {
	if len(*waiters) == 0 {
		return // every run end calls this: leave an empty list's line clean
	}
	for _, ch := range *waiters {
		ch <- struct{}{}
	}
	*waiters = (*waiters)[:0]
}

// resolveLocked builds the Triggers of the run c.es[:n] — entries of one
// thread, te's — from the thread's own attachment list: the attachment is
// looked up for the first entry and again only when an address leaves it.
// Callers hold the dispatch lock, which guards atts.
func (te *threadEntry) resolveLocked(c *claim, n int) {
	var a *attachment
	for i := range c.es[:n] {
		e := &c.es[i]
		if a = te.attachmentNear(a, e.Addr); a == nil {
			// An entry can only exist for an attached range: the enqueue side
			// re-checks the attachment under the dispatch lock, and Cancel
			// squashes entries under the same lock when detaching. Reaching
			// here is a runtime bug.
			panic(fmt.Sprintf("core: queue entry for thread %d addr %#x has no attachment", e.Thread, e.Addr))
		}
		// Attach checked [a.lo, a.hi) lies in the region: no second validation.
		c.tgs[i] = Trigger{Thread: e.Thread, Region: a.region, Index: int((e.Addr - a.region.buf.Base()) / mem.WordBytes), Addr: e.Addr}
	}
}

// runBodies executes the bodies of the run c.es[i:n] — entries of the thread
// whose record is te, triggers resolved — back to back under ONE deferred
// recover, and returns the index after the last body it started. A body that
// panics is a failed run for its entry instead of tearing down the process
// (the paper's hardware squashes a faulting support thread; it never takes
// down the main thread): its outcome in c.oks stays false and the call
// returns there, for the caller to resume the run behind it. A Cancel since
// epoch was read (under the claim's lock) stops the run between bodies; a run
// of one never consults epoch.
func (rt *Runtime) runBodies(te *threadEntry, c *claim, i, n int, epoch uint32) (next int) {
	g := rt.obs.checkGoid()
	var in instance
	inBody := false // a panic outside a body is the runtime's own: not recovered
	next = i
	defer func() {
		if inBody && recover() != nil {
			rt.obs.exit(c.es[next-1].Thread, g, in)
		}
	}()
	for {
		k := next
		next++ // before the body: a panic in it returns past it
		e := &c.es[k]
		c.oks[k] = false
		in = rt.obs.enter(te, e, g)
		inBody = true
		te.fn(c.tgs[k])
		inBody = false
		c.oks[k] = true
		rt.obs.exit(e.Thread, g, in)
		if next == n || atomic.LoadUint32(&te.cancelEpoch) != epoch {
			return next
		}
	}
}

// beginRunLocked opens the instance-run bracket for a run of n >= 1 entries
// of the thread whose record is te, which the caller has already taken off
// the queue: it takes the thread's run token once for goroutine g
// (re-entrantly, when an overflowed cascade re-enters its own thread) and
// moves the n entries from the ring's pending count to the status row's
// dispatched column (queued entries; busy, which counts both, stands) or
// counts an inline run in flight in busy (an overflowed trigger, which the
// status row never shows; n is 1). Only the immediate backend's worker
// claims n > 1. Callers hold rt.d.mu, resolve the entries' triggers under
// it (resolveLocked), release it around runBodies, and close the bracket
// with endRunLocked.
func (rt *Runtime) beginRunLocked(te *threadEntry, n int, g uint64, queued bool) {
	te.running++
	te.owner = g
	if queued {
		te.dispatched += n
	} else {
		rt.d.addBusy(1)
	}
}

// endRunLocked closes the bracket beginRunLocked opened on a run of n
// entries, in one settle: it returns the run token and records one outcome
// per started body, in order — Executed or FailedRuns for a queued
// instance, InlineRuns (and FailedRuns) for an inline one, keeping
// Overflowed = InlineRuns + Dropped. Outcomes land on the thread's status
// row and in the runtime's counters (which outlive a retired thread's row):
// a failed run colours the row however it was dispatched, only a
// queue-dispatched success clears it. The n - len(oks) entries a Cancel
// stopped the run before leave the dispatched column as cancelled work,
// neither executed nor failed. Then it drops the busy count by n and
// propagates the quiescence consequences once. Callers hold rt.d.mu.
func (rt *Runtime) endRunLocked(te *threadEntry, t ThreadID, queued bool, n int, oks ...bool) {
	d := rt.d
	te.running--
	if te.running == 0 {
		te.owner = 0
	}
	for _, ok := range oks {
		if !queued {
			d.c.inlineRuns++
		}
		switch {
		case !ok:
			d.c.failedRuns++
			te.failed++
			te.lastFailed = true
		case queued:
			d.c.executed++
			te.executed++
			te.lastFailed = false
		}
	}
	if queued {
		// The one assertion on the status row: a bracket settles exactly the
		// entries it took off the ring.
		te.dispatched -= n
		if te.dispatched < 0 {
			panic(fmt.Sprintf("core: thread %d settled %d dispatched entries more than it took", t, -te.dispatched))
		}
	}
	d.addBusy(int64(-n))
	rt.finishLocked(te, t)
	if !queued && te.running == 0 && d.tq.Pending(t) {
		// Entries of t that workers skipped while this inline run held the
		// token are dispatchable again, and the finisher is no worker.
		rt.wakeWorker()
	}
}

// drain is the single-goroutine execution model: it runs queued instances on
// the calling goroutine, entry by entry — pick, begin, resolve, run, end —
// until pickLocked has nothing to run now. Wait and Barrier drain with all set
// and leave the queue empty except for entries of threads still running in an
// enclosing frame (impossible from the main thread, their only legal caller);
// under a schedule every changing write is also a preemption point
// (afterWrite, all false). The settle and the next pick share one hold of the
// dispatch lock; a body runs with its thread's token held and no lock, so a
// nested drain — a body whose store re-enters here — sees the enclosing
// thread's token and skips it, preserving one-instance-at-a-time. With a
// recorder each instance is a support task, which the recorder's next Join
// takes.
func (rt *Runtime) drain(all bool) {
	var c claim
	d := rt.d
	d.mu.Lock()
	for {
		ths := rt.threadsSnap()
		if !rt.pickLocked(ths, all, &c.es[0]) {
			d.mu.Unlock()
			return
		}
		t := c.es[0].Thread
		te := ths[t]
		rt.beginRunLocked(te, 1, 0, true)
		te.resolveLocked(&c, 1)
		d.mu.Unlock()

		rt.obs.beginSupport(te, c.es[0])
		rt.runBodies(te, &c, 0, 1, 0)
		rt.obs.endSupport()

		d.mu.Lock()
		rt.endRunLocked(te, t, true, 1, c.oks[0])
	}
}

// pickLocked is the one part of drain that varies: it takes the entry to run
// next off the ring into *e, or reports false to stop. With no schedule the
// pick is FIFO — the head, O(1). With one it is the schedule's, among the
// entries whose thread has no running instance, oldest first, and unless
// all is set only if the schedule dispatches at this point. Callers hold the
// dispatch lock, so the choice is deterministic.
func (rt *Runtime) pickLocked(ths []*threadEntry, all bool, e *queue.Entry) bool {
	tq := rt.d.tq
	if rt.sched == nil {
		head, ok := tq.Dequeue()
		*e = head
		return ok
	}
	rt.elig = rt.elig[:0]
	for i := 0; i < tq.Len(); i++ {
		if ths[tq.EntryAt(i).Thread].running == 0 {
			rt.elig = append(rt.elig, i)
		}
	}
	if len(rt.elig) == 0 || (!all && !rt.sched.RunNow()) {
		return false
	}
	*e = tq.DequeueAt(rt.elig[rt.sched.Pick(len(rt.elig))])
	return true
}

// runInline executes an overflowed trigger synchronously in the triggering
// thread, honouring per-thread serialisation. When the triggering store
// came from inside an instance of the same thread — a cascading trigger
// that found the queue full — the body is re-entered recursively on this
// goroutine: that preserves one-instance-at-a-time (the nesting is serial)
// and avoids waiting for ourselves.
func (rt *Runtime) runInline(e queue.Entry) {
	// On the single-goroutine backends no identity is needed: if the
	// thread is busy while we are issuing a store, we are necessarily
	// inside its own body. Only the immediate backend pays for goroutine
	// identity, and only on this overflow path.
	var g uint64
	if rt.wake != nil {
		g = goid()
	}
	te := rt.threadsSnap()[e.Thread]
	d := rt.d
	d.mu.Lock()
	for {
		if te.attachmentAt(e.Addr) == nil {
			// A Cancel raced in between the overflow and this run; the
			// work it would have done is cancelled work. Counting it as
			// dropped keeps Overflowed = InlineRuns + Dropped.
			d.c.dropped++
			d.mu.Unlock()
			return
		}
		if te.running == 0 || rt.wake == nil || te.owner == g {
			// The run token is free — or ours already, and the bracket
			// re-enters the body nested on this goroutine.
			break
		}
		d.sleepLocked(&te.tokenWaiters)
	}
	rt.beginRunLocked(te, 1, g, false)
	c := claim{es: [claimMax]queue.Entry{e}}
	te.resolveLocked(&c, 1)
	d.mu.Unlock()

	rt.runBodies(te, &c, 0, 1, 0)

	d.mu.Lock()
	rt.endRunLocked(te, e.Thread, false, 1, c.oks[0])
	d.mu.Unlock()
}

// claimMax bounds how many entries of one thread a worker takes off the
// queue per critical section. Measured on bench's ingest workload (one producer,
// one worker, nproc 2, 2 seeds x 5 s, M ops/s): 1 -> 13.2, 4 -> 16.6,
// 8 -> 17.2, 16 -> 16.7, 64 -> 17.0, 256 -> 18.1. Flat past 4, so it is a
// constant, not a knob; 16 keeps the redundant instances a re-store to a
// claimed address can cost (claimMax-1 per claim, see DESIGN.md) and a
// worker's scratch (about 1 KB) small.
const claimMax = 16

// claim is a worker's private scratch for one claimed run: the entries, the
// triggers resolved for them under the dispatch lock, and each started
// body's outcome.
type claim struct {
	es  [claimMax]queue.Entry
	tgs [claimMax]Trigger
	oks [claimMax]bool
}

// runClaims is the immediate backend's dispatch loop. A work flag that reads
// false returns at once, without the lock (wakeWorker's ordering argument
// covers a trigger admitted just after the read). Otherwise, in one critical
// section it finds the oldest entry whose thread's token is free, takes that
// token once, and claims the entry plus the entries of the same thread
// directly behind it (up to claimMax), resolving their triggers. It runs the
// bodies back to back with no lock held, settles the whole run in one
// endRunLocked, and — still holding the lock — goes straight to the next
// claim; the lock is dropped only around bodies and when nothing in the
// queue is eligible. A claim holds one thread's token, never two, so other
// workers can run other threads meanwhile; the token spans the run, so a
// thread's instances stay serial and in enqueue order. Claimed entries have
// left the queue and cleared their pending bits, as the paper frees the
// queue entry at spawn. It reports whether any body ran.
func (rt *Runtime) runClaims(g uint64, c *claim) (ran bool) {
	d := rt.d
	if !d.work.Load() {
		return false
	}
	d.mu.Lock()
	for {
		// Loaded under d.mu: any entry visible in the queue was enqueued
		// by a goroutine that saw its thread published first.
		ths := rt.threadsSnap()
		n := d.tq.DequeueRun(func(e queue.Entry) bool { return ths[e.Thread].running == 0 }, c.es[:])
		if n == 0 {
			d.mu.Unlock()
			return ran
		}
		ran = true
		t := c.es[0].Thread
		te := ths[t]
		rt.beginRunLocked(te, n, g, true)
		te.resolveLocked(c, n)
		epoch := te.cancelEpoch
		if d.tq.Len() > d.tq.PendingCount(t) {
			// Other threads' entries stay behind while this worker is busy
			// with t: offer them to a parked one.
			rt.wakeWorker()
		}
		d.mu.Unlock()

		// One call is the whole run, unless a body panics (resume behind
		// it) or a Cancel of t since the claim stops it.
		started := 0
		for started < n && atomic.LoadUint32(&te.cancelEpoch) == epoch {
			started = rt.runBodies(te, c, started, n, epoch)
		}

		d.mu.Lock()
		rt.endRunLocked(te, t, true, n, c.oks[:started]...)
	}
}

// worker is the BackendImmediate dispatch loop: one goroutine per spare
// hardware context. It claims until a pass runs nothing, then parks: it
// announces itself in rt.parked, re-checks once — runClaims reads the work
// flag and locks only when it shows work — and blocks on rt.wake. Producers
// and finishers send a token only while some worker is announced
// (wakeWorker), so a worker that is awake costs them one atomic load and no
// channel operation. There is no spinning before the park: on two vCPUs it
// cost the ammp kernel 30-60% (the dispatch lock and ring lines bounce
// between producer and worker).
func (rt *Runtime) worker() {
	defer rt.wg.Done()
	// goid is stable for the life of this worker goroutine; computing it
	// once keeps runtime.Stack off the dispatch fast path.
	g := goid()
	var c claim
	for {
		if rt.runClaims(g, &c) {
			continue
		}
		if rt.closed.Load() {
			return
		}
		rt.parked.Add(1)
		if !rt.runClaims(g, &c) {
			// Sleep until a trigger is admitted somewhere, an inline run
			// or another worker's claim leaves entries for us, or Close
			// deposits the final token.
			<-rt.wake
		}
		rt.parked.Add(-1)
	}
}

// goid returns the current goroutine's id, parsed from the stack header.
// The unchecked fast paths never call it: a worker resolves its id once at
// start, an inline overflow run on the immediate backend pays for it next
// to the thread body about to run, and otherwise only the sanitizer asks
// (once per checked access — part of CheckStrict's price). A parse failure
// panics: the id guards the recursive-inline deadlock check, and an
// unparseable id silently disabling that check (as a zero-valued fallback
// once did) turns a Go version bump into a runtime hang.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const header = "goroutine "
	if len(s) < len(header) || string(s[:len(header)]) != header {
		panic(fmt.Sprintf("core: goid: unrecognised stack header %q", s))
	}
	id, digits := uint64(0), 0
	for i := len(header); i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		id = id*10 + uint64(s[i]-'0')
		digits++
	}
	if digits == 0 || id == 0 {
		panic(fmt.Sprintf("core: goid: cannot parse goroutine id from header %q", s))
	}
	return id
}

// Wait blocks until thread t has no pending or running instances (twait).
// The single-goroutine backends run the queue on the caller (drain); the
// immediate backend sleeps in drainThread.
func (rt *Runtime) Wait(t ThreadID) {
	rt.stats.waits.Add(1)
	j := rt.obs.beginJoin("dtt.Wait")
	// Wait is a blocking merge point: pending commutative deltas reach
	// memory — and fire their triggers — before the quiescence predicate
	// is evaluated, so the post-Wait state reflects every TUpdate this
	// goroutine issued.
	rt.mergeAllPlanes()
	if rt.wake == nil {
		rt.drain(true)
	} else {
		rt.drainThread(t)
	}
	rt.obs.join(j, t, false)
}

// Barrier blocks until the queue is empty and every thread is idle
// (tbarrier). The single-goroutine backends run the queue on the caller
// (drain); on the immediate backend the waiter checks the quiescence count
// under the dispatch lock and, while it is not zero, sleeps on
// barrierWaiters, which finishLocked wakes when it reaches zero — Wait's
// shape, with the whole runtime as the thread.
func (rt *Runtime) Barrier() {
	rt.stats.barriers.Add(1)
	j := rt.obs.beginJoin("dtt.Barrier")
	// Like Wait, Barrier merges pending commutative deltas (blocking)
	// before confirming quiescence.
	rt.mergeAllPlanes()
	if rt.wake == nil {
		rt.drain(true)
	} else {
		d := rt.d
		d.mu.Lock()
		for d.busy != 0 {
			d.sleepLocked(&d.barrierWaiters)
		}
		d.mu.Unlock()
	}
	rt.obs.join(j, 0, true)
}

// Status returns thread t's TQST state (tstatus): the "most active" reading
// of its status row. A thread never registered is idle.
func (rt *Runtime) Status(t ThreadID) queue.Status {
	d := rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	switch te := entryOf(rt.threadsSnap(), t); {
	case te == nil: // never registered: idle
	case te.dispatched > 0:
		return queue.StatusRunning
	case d.tq.Pending(t):
		return queue.StatusPending
	case te.lastFailed:
		return queue.StatusFailed
	}
	return queue.StatusIdle
}

// Executed returns how many queue-dispatched instances of t have completed.
func (rt *Runtime) Executed(t ThreadID) int64 {
	return rt.ThreadStatsFor(t).Executed
}

// QueueCounters returns the thread queue's lifetime counters (see
// queue.Counters for the invariant they obey).
func (rt *Runtime) QueueCounters() queue.Counters {
	rt.d.mu.Lock()
	defer rt.d.mu.Unlock()
	return rt.d.tq.Counters()
}

// ShardCounters returns QueueCounters as a one-element slice, the shape of
// the per-shard breakdown the runtime reported when its queue was split.
func (rt *Runtime) ShardCounters() []queue.Counters {
	return []queue.Counters{rt.QueueCounters()}
}

// Close stops the worker pool; it is idempotent. The wake channel is never
// closed — a concurrent enqueue may be signalling under the dispatch lock —
// instead it gets one final token per worker, parked or not, and each
// worker exits after a pass that runs nothing with the closed flag set, so
// every entry claimable before then runs. Entries that pass could not claim
// — admitted after it (a changing TStore to an attached word after Close),
// or behind a run token an inline run held — never run on the immediate
// backend, and a Wait or Barrier on them blocks forever. On the
// single-goroutine backends a later Wait or Barrier still drains the queue
// on the caller. Call Barrier before Close for a clean drain.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed.Load() {
		rt.mu.Unlock()
		return
	}
	rt.closed.Store(true)
	rt.mu.Unlock()
	if rt.metricsSrv != nil {
		// Stop scrapes before the dispatch plane winds down; in-flight
		// snapshot reads only take the dispatch lock, which remains valid.
		rt.metricsSrv.Close()
	}
	for i := 0; i < cap(rt.wake); i++ {
		select {
		case rt.wake <- struct{}{}:
		default:
		}
	}
	rt.wg.Wait()
}

package core

import (
	"context"
	"fmt"
	"net/http"
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
// thread's trigger ranges and its run token. The token serialises instances
// of one thread (the paper's one-instance-at-a-time rule) without involving
// any other thread: workers executing different threads only meet on the
// dispatch lock for queue operations, never on each other's tokens. The
// token and the ring's per-thread pending count are the thread's row of the
// status table (TQST): Wait and Status read nothing else.
//
// name and fn are immutable after Register. atts, the token and the waiter
// list are guarded by the dispatch lock (rt.d.mu); Attach and Cancel
// additionally hold rt.mu to serialise against registry mutations.
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
	// exceeds one only on a single-goroutine backend, when a cascading
	// trigger that overflowed the queue re-enters its own thread's body,
	// nested and therefore still serial. On the immediate backend an
	// overflow onto a held token is a mark (queue.ThreadQueue.Mark), which
	// the holder sweeps before it lets the token go, so nothing ever waits
	// for a token and nothing needs to know whose it is.
	running int

	// cancelEpoch counts Cancels of this thread. A worker snapshots it when
	// it claims a run of the thread's entries and re-reads it with one
	// atomic load before each body: a Cancel landing mid-run bumps it under
	// the dispatch lock, and the unstarted rest of the run is dropped rather
	// than executed after the tcancel. Written (atomically) only under the
	// dispatch lock, so a plain read under that lock is exact.
	cancelEpoch uint32 //dtt:guards dispatcher.mu

	// quietWaiters are woken when the thread is quiet (quietLocked): Wait
	// sleeps here, a targeted wakeup — only goroutines interested in this
	// thread are woken.
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
// (its per-thread pending counts, with the threadEntry run tokens, are the
// status table), the trigger counters, the quiescence count and the Barrier
// waiters. One mutex guards all of it. It is allocated in the 128-byte size
// class, whose objects fill two whole cache lines, so the dispatch lock and
// busy count share no line with another allocation.
type dispatcher struct {
	mu sync.Mutex
	tq *queue.ThreadQueue
	// c are the trigger counters, guarded by mu, so a Stats snapshot taken
	// under it is torn-free (see dispatchStats).
	c dispatchStats
	// busy is the quiescence count, the only one: tq.Len() plus the marks
	// plus the entries of the runs in flight, queued or inline.
	busy int64 //dtt:guards dispatcher.mu
	// barrierWaiters are woken when busy reaches zero: Barrier sleeps here.
	barrierWaiters []chan struct{} //dtt:guards dispatcher.mu
	// spare holds sleepLocked's empty wake channels, for reuse.
	spare []chan struct{} //dtt:guards dispatcher.mu
}

// sleepLocked is the one way to sleep on the dispatch lock, called by the
// twait and tbarrier joins and by an idle worker, each in a loop over its
// predicate. Entered with d.mu held, it parks on waiters until
// wakeAll empties that list or wakeWorker pops it off, and returns with d.mu
// held. Its cap-1 channel comes from d.spare and is made only when that list
// is empty. The waker sends on it instead of closing it, and the sleeper
// returns it to d.spare only after receiving that send, so a recycled channel
// never carries a stale wakeup: a sleeper that leaves without receiving must
// never put its channel back.
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
//  2. The dispatch lock (dispatcher.mu): the thread queue and its marks,
//     the per-thread records and their run tokens, and the quiescence
//     count. A store that fires takes it once, and only for pointer-sized
//     bookkeeping, never across a thread body.
//  3. rt.mu, the management lock: Register/Attach/Cancel and registry
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

	// mu is the management lock: Register/Attach/Cancel and registry
	// mutations. The store fast path never takes it.
	mu sync.Mutex

	// idle is the waiter list of the immediate backend's workers asleep in
	// sleepLocked with nothing to claim. It lives here rather than in d to
	// keep the dispatcher in its size class.
	idle []chan struct{} //dtt:guards dispatcher.mu
	wg   sync.WaitGroup

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
	// is set; its Addr is the bound listen address.
	metricsSrv *http.Server

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
func (rt *Runtime) MetricsAddr() string {
	if rt.metricsSrv == nil {
		return ""
	}
	return rt.metricsSrv.Addr
}

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
	rt.obs.attach()
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
	d.busy -= int64(d.tq.Squash(t))
	// Marks never ran: cancelled overflowed work, Dropped.
	dropped := d.tq.DropMarks(t)
	d.c.dropped += int64(dropped)
	d.busy -= int64(dropped)
	rt.stats.cancels.Add(1)
	// Squashing may have made t — or the whole runtime — quiet.
	rt.finishLocked(te, t)
	d.mu.Unlock()
}

// retireThreadLocked recycles cancelled thread t's table slot: the entry
// is replaced by an inert tombstone (dropping the registered closure and
// whatever it captured) and the ID goes on the free list for the next
// Register, so steady namespace churn keeps the thread table at a fixed
// size. Only a quiet thread with no attachments retires; otherwise the slot
// is left as-is and the call reports false (a still-running instance
// finishes against the old entry it captured). Callers hold rt.mu.
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
// range dispatchFired, with the registry's zero-copy prefix of candidates and
// the one word on the stack. It reports whether the word changed.
//
// The fast paths are allocation-free and ordered cheapest-first: a silent
// store is one atomic load; a changing store to an unattached address adds
// the swap and a lock-free index probe (two comparisons when the address is
// far from every trigger range), either plus its counter's atomic add; only a
// changing store inside a trigger range takes a lock — the dispatch lock, once
// however many threads it fires — and counts itself under it: three locked
// instructions, the swap, the lock and the unlock.
func (rt *Runtime) tstore(r *Region, i int, v mem.Word) bool {
	g := rt.obs.checkGoid()
	changed := r.buf.Store(i, v)
	rt.obs.write(r, i, changed, g)
	if !changed {
		rt.stats.silent.Add(1)
		return false
	}
	word := [1]mem.Addr{r.buf.Addr(i)}
	cands := rt.reg.Snapshot().Prefix(word[0])
	n := 0
	if covers(cands, word[0]) {
		n = 1
	}
	// Room on the stack for the overflow of a word one thread covers.
	var spill [1]queue.Entry
	rt.afterWrite(rt.dispatchFired(cands, word[:n], spill[:0], g, 1))
	return true
}

// afterWrite is the tail of every changing triggering write, run with no
// lock held: the overflowed triggers the write collected for itself execute
// inline in the writer (runInline), and then the write is a preemption point — the
// deterministic scheduler may dispatch any number of pending instances. A
// batch or a merge is ONE preemption point, at its end, however many words it
// wrote.
func (rt *Runtime) afterWrite(inline []queue.Entry) {
	if len(inline) > 0 {
		rt.runInline(inline)
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
// squash leaving nothing to settle. On the immediate backend an overflowed
// trigger whose thread's run token (te's) is held is marked
// (queue.ThreadQueue.Mark) and counted in busy, for the holder to sweep; any
// other is appended to inline, which is returned, for the caller to run after
// its dispatch completes — never with the dispatch lock held. On a
// single-goroutine backend a held token is the writer's own enclosing
// bracket, which the inline run re-enters. On Enqueued the caller owes the
// queue its settlement — the busy count, a queue-depth sample and a worker
// wakeup — which dispatchFired, the only caller, pays once per write. Moving
// the scalar store from a settle per entry to this one moved no end-to-end
// metric outside the old code's quartile spread, in ten alternating 20 s
// runs of each bench/run.sh workload on a 2-core Xeon; in two traced runs
// each, where baseline and DTT alternate within a pass, kernels_fine's
// speedup read 0.27x against 0.25x.
func (rt *Runtime) admitLocked(te *threadEntry, a *attachment, id ThreadID, addr mem.Addr, g uint64, inline []queue.Entry) (queue.EnqueueStatus, []queue.Entry) {
	if a == nil {
		return queue.Squashed, inline
	}
	rt.d.c.fired++
	st := rt.d.tq.Enqueue(id, addr, &a.pend)
	if st == queue.Overflowed {
		if te.running != 0 && rt.cfg.Backend == BackendImmediate {
			rt.d.tq.Mark(id, addr, &a.pend)
			rt.d.busy++
		} else {
			inline = append(inline, queue.Entry{Thread: id, Addr: addr})
		}
	}
	rt.obs.admit(g, id, addr, st)
	return st, inline
}

// batchScratch is the per-call working set of a batch or a merge: the
// attachments overlapping the write's span — a batch's words, a merge's
// region — resolved once per write by begin, and the changed words they cover,
// collected during the write phase. Instances live on the Runtime.batchFree
// list; slices keep their capacity across calls, so a warmed scratch serves
// any batch the program repeats without allocating.
type batchScratch struct {
	cands  []queue.Attachment
	words  []mem.Addr
	inline []queue.Entry
}

func (sc *batchScratch) begin(snap queue.Snapshot, lo, hi mem.Addr) {
	sc.cands = snap.Overlapping(lo, hi, sc.cands[:0])
	sc.words = sc.words[:0]
	sc.inline = sc.inline[:0]
}

// covers reports whether an attachment in cands covers addr: the one
// coverage test every triggering write makes outside the dispatch lock.
func covers(cands []queue.Attachment, addr mem.Addr) bool {
	for _, a := range cands {
		if a.Lo <= addr && addr < a.Hi {
			return true
		}
	}
	return false
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

// tstoreBatch is the batched triggering store behind Region.TStoreBatch:
// semantically len(vs) scalar tstores, with the dispatch overhead amortized
// over the span. It returns how many words changed.
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
			if addr := r.buf.Addr(lo + j); covers(sc.cands, addr) {
				sc.words = append(sc.words, addr)
			}
		}
	}
	if silent := len(vs) - changed; silent > 0 {
		rt.stats.silent.Add(int64(silent))
	}
	rt.obs.batchSize(len(vs))

	sc.inline = rt.dispatchFired(sc.cands, sc.words, sc.inline, g, changed)
	if changed > 0 {
		rt.afterWrite(sc.inline)
	}
	rt.putScratch(sc)
	return changed
}

// dispatchFired is the dispatch phase of every triggering write — a scalar
// store, a batch, a merge — stages three and 3a of the pipeline. words are
// the write's changed words that some attachment in cands covers, cands the
// attachments the write resolved against one registry snapshot, in index
// order, and stores the write's changed tstore words (0 for a merge).
//
// A write that covers nothing takes no lock: it counts its stores lock-free.
// Any other takes the dispatch lock exactly once, counts its stores under it,
// and walks words × cands in index order, offering each covering (thread,
// word) pair to admitLocked — the matches a per-word registry lookup would
// produce, in its order — so each pair moves fired plus exactly one of
// enqueued/squashed/overflowed and the identity Fired = Enqueued + Squashed +
// Overflowed holds at every instant. The thread record and attachment are
// resolved once per run of one thread's pairs, and busy, the queue-depth
// sample and the worker wakeup settle once per write rather than once per
// entry. Overflowed pairs are marked or appended to inline (admitLocked),
// which is returned for the caller's afterWrite.
func (rt *Runtime) dispatchFired(cands []queue.Attachment, words []mem.Addr, inline []queue.Entry, g uint64, stores int) []queue.Entry {
	if len(words) == 0 {
		if stores > 0 {
			rt.stats.changing.Add(int64(stores))
		}
		return inline
	}
	// The thread table is loaded after the registry snapshot that produced
	// cands, so every id in them is in range.
	ths := rt.threadsSnap()
	d := rt.d
	enqueued := 0
	var te *threadEntry
	var a *attachment
	d.mu.Lock()
	d.c.changing += int64(stores)
	for _, addr := range words {
		for _, c := range cands {
			if addr < c.Lo || addr >= c.Hi {
				continue
			}
			if ths[c.Thread] != te { // a new run of one thread's pairs
				te, a = ths[c.Thread], nil
			}
			a = te.attachmentNear(a, addr)
			st, grown := rt.admitLocked(te, a, c.Thread, addr, g, inline)
			if inline = grown; st == queue.Enqueued {
				enqueued++
			}
		}
	}
	if enqueued > 0 {
		d.busy += int64(enqueued)
		// One depth sample per write: the depth after its admissions, not
		// one sample per entry.
		rt.obs.queueDepth(d.tq)
		rt.wakeWorker()
	}
	d.mu.Unlock()
	return inline
}

// wakeWorker wakes one idle worker, if there is one, for work its caller
// made claimable under the dispatch lock it still holds: an enqueue, or a
// token release that left entries behind. A worker decides to sleep in the
// same hold of that lock in which it found nothing to claim, so it is either
// on rt.idle here or will see the work when it next looks.
func (rt *Runtime) wakeWorker() {
	if n := len(rt.idle); n > 0 {
		rt.idle[n-1] <- struct{}{}
		rt.idle = rt.idle[:n-1]
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
// dropping: it completes Wait waiters whose predicate became true, and
// completes Barrier waiters — and, once Close has sealed the queue, the idle
// workers, to exit — when the quiescence count is zero (te is nil when a
// Cancel names an id never registered). Re-offering t's skipped queue
// entries is the finisher's business — a worker re-claims itself, an inline
// run wakes one (runClaimLocked). Callers hold rt.d.mu.
func (rt *Runtime) finishLocked(te *threadEntry, t ThreadID) {
	d := rt.d
	if te != nil && len(te.quietWaiters) > 0 && d.quietLocked(te, t) {
		wakeAll(&te.quietWaiters)
	}
	if d.busy == 0 {
		wakeAll(&d.barrierWaiters)
		if d.tq.Sealed() {
			wakeAll(&rt.idle)
		}
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

// runClaimLocked is the instance-run bracket, the one way any executor — a
// worker's claim, drain's pick, a group of runInline's overflowed entries —
// runs c.es[:n], n >= 1 entries of the thread whose record is te. It takes
// the thread's run token once (re-entrantly, when an overflowed cascade
// re-enters its own thread on a single-goroutine backend) and runs the
// entries (runLocked). Then the sweep: before the token goes, its holder
// takes the marks that overflows onto the held token left
// (queue.ThreadQueue.TakeMarks) and runs them inline, up to claimMax at a
// time, until none is left. Marks exist only while the token is held, so
// the release leaves none behind. Entered and left with rt.d.mu held.
func (rt *Runtime) runClaimLocked(te *threadEntry, c *claim, n int, queued bool) {
	d := rt.d
	t := c.es[0].Thread
	te.running++
	rt.runLocked(te, c, n, queued)
	for n = d.tq.TakeMarks(t, c.es[:]); n > 0; n = d.tq.TakeMarks(t, c.es[:]) {
		rt.runLocked(te, c, n, false)
	}
	te.running--
	rt.finishLocked(te, t)
	if !queued && te.running == 0 && d.tq.Pending(t) {
		// Entries of t that workers skipped while this inline run held the
		// token are dispatchable again, and the finisher is no worker.
		rt.wakeWorker()
	}
}

// runLocked runs c.es[:n] under the run token runClaimLocked holds: under
// the dispatch lock it resolves the triggers and reads the cancel epoch, runs
// the bodies back to back with no lock held and settles the run in one
// endRunLocked. A Cancel of the thread since the claim stops the run before
// its next body; a body that panics resumes the run behind it. A separate
// function so that every executor's frame keeps the lock held across the
// sweep's loop, as dttlint's lock walker reads it. Entered and left with
// rt.d.mu held.
func (rt *Runtime) runLocked(te *threadEntry, c *claim, n int, queued bool) {
	d := rt.d
	t := c.es[0].Thread
	te.resolveLocked(c, n)
	epoch := te.cancelEpoch
	if queued && d.tq.Len() > d.tq.PendingCount(t) {
		rt.wakeWorker() // other threads' entries wait behind t's: offer them
	}
	d.mu.Unlock()

	if queued {
		rt.obs.beginSupport(te, c.es[0])
	}
	started := 0
	for started < n && atomic.LoadUint32(&te.cancelEpoch) == epoch {
		started = rt.runBodies(te, c, started, n, epoch)
	}
	if queued {
		rt.obs.endSupport() //dtt:escape-ok -- the inlined recorder misuse panic's message, built only on that panic
	}

	d.mu.Lock()
	rt.endRunLocked(t, queued, n, c.oks[:started]...)
}

// endRunLocked settles one run of n entries of thread t: it counts one
// outcome per started body, in order — Executed or FailedRuns for a queued
// instance, InlineRuns (and FailedRuns) for an overflowed one. The n -
// len(oks) entries a Cancel stopped the run before are cancelled work:
// queued ones are neither executed nor failed, overflowed ones count
// Dropped, keeping Overflowed = InlineRuns + Dropped. Then it drops the busy
// count by n. A settle of more entries than busy counts in flight panics
// before it changes anything. Callers hold rt.d.mu.
func (rt *Runtime) endRunLocked(t ThreadID, queued bool, n int, oks ...bool) {
	d := rt.d
	if d.busy < int64(n) {
		panic(fmt.Sprintf("core: thread %d settled %d entries with %d in flight", t, n, d.busy))
	}
	if !queued {
		d.c.dropped += int64(n - len(oks))
	}
	for _, ok := range oks {
		if !queued {
			d.c.inlineRuns++
		}
		switch {
		case !ok:
			d.c.failedRuns++
		case queued:
			d.c.executed++
		}
	}
	d.busy -= int64(n)
}

// drain is the single-goroutine execution model: it runs queued instances on
// the calling goroutine, entry by entry — a pick and its one-entry bracket —
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
		rt.runClaimLocked(ths[c.es[0].Thread], &c, 1, true)
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

// runInline executes the overflowed triggers a write collected for itself
// (admitLocked) synchronously in the writer, in admission order, honouring
// per-thread serialisation; it never waits. Each maximal run of one thread's
// consecutive entries (up to claimMax) is one bracket, and an entry whose
// attachment a Cancel removed since the overflow counts Dropped instead of
// running, keeping Overflowed = InlineRuns + Dropped. When the write came
// from inside an instance of the same thread on a single-goroutine backend —
// a cascading trigger that found the queue full — the bracket re-enters the
// body on this goroutine, which preserves one-instance-at-a-time (the
// nesting is serial). On the immediate backend a token a worker took since
// the admission is no reason to wait either: the group's entries are marked
// for that worker to sweep, as admission would have marked them.
func (rt *Runtime) runInline(inline []queue.Entry) {
	immediate := rt.cfg.Backend == BackendImmediate
	ths := rt.threadsSnap()
	var c claim
	d := rt.d
	d.mu.Lock()
	for len(inline) > 0 {
		t := inline[0].Thread
		te := ths[t]
		k := 1
		for k < len(inline) && k < claimMax && inline[k].Thread == t {
			k++
		}
		held := immediate && te.running != 0
		n := 0
		for _, e := range inline[:k] {
			switch a := te.attachmentAt(e.Addr); {
			case a == nil:
				d.c.dropped++
			case held:
				d.tq.Mark(t, e.Addr, &a.pend)
				d.busy++
			default:
				c.es[n] = e
				n++
			}
		}
		inline = inline[k:]
		if n > 0 {
			d.busy += int64(n) // a queued run's entries were counted at admission
			rt.runClaimLocked(te, &c, n, false)
		}
	}
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

// worker is the BackendImmediate dispatch loop, one goroutine per spare
// hardware context. In one critical section it finds the oldest entry whose
// thread's token is free and claims it plus the entries of the same thread
// directly behind it (up to claimMax); runClaimLocked runs them and returns
// holding the lock, so the worker goes straight to the next claim. A claim
// holds one thread's token, never two, so other workers can run other
// threads meanwhile; the token spans the run, so a thread's instances stay
// serial and in enqueue order.
// Claimed entries have left the queue and cleared their pending bits, as the
// paper frees the queue entry at spawn. When nothing is claimable the worker
// sleeps on rt.idle in the same hold of the lock (wakeWorker), and once Close
// has sealed the queue it exits at the first look that finds the runtime
// quiescent: nothing queued, nothing running. There is no spinning before
// the sleep: on two vCPUs it cost the ammp kernel 30-60% (the dispatch lock
// and ring lines bounce between producer and worker).
func (rt *Runtime) worker() {
	defer rt.wg.Done()
	var c claim
	d := rt.d
	d.mu.Lock()
	for {
		// Loaded under d.mu: any entry visible in the queue was enqueued
		// by a goroutine that saw its thread published first.
		ths := rt.threadsSnap()
		n := d.tq.DequeueRun(func(e queue.Entry) bool { return ths[e.Thread].running == 0 }, c.es[:])
		if n == 0 {
			if d.tq.Sealed() && d.busy == 0 {
				d.mu.Unlock()
				return
			}
			d.sleepLocked(&rt.idle)
			continue
		}
		rt.runClaimLocked(ths[c.es[0].Thread], &c, n, true)
	}
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
	if rt.cfg.Backend == BackendImmediate {
		rt.drainThread(t)
	} else {
		rt.drain(true)
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
	if rt.cfg.Backend == BackendImmediate {
		d := rt.d
		d.mu.Lock()
		for d.busy != 0 {
			d.sleepLocked(&d.barrierWaiters)
		}
		d.mu.Unlock()
	} else {
		rt.drain(true)
	}
	rt.obs.join(j, 0, true)
}

// Status returns thread t's TQST state (tstatus), read from the table Wait
// reads: Running while an instance holds the run token, queued or inline;
// otherwise Pending while the ring holds an entry of t; otherwise Idle. A
// thread never registered is idle.
func (rt *Runtime) Status(t ThreadID) queue.Status {
	d := rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	switch te := entryOf(rt.threadsSnap(), t); {
	case te != nil && te.running > 0:
		return queue.StatusRunning
	case d.tq.Pending(t):
		return queue.StatusPending
	}
	return queue.StatusIdle
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

// Close seals the thread queue, so every later trigger that is not squashed
// overflows and runs inline on the storing goroutine, on every backend. It
// strands nothing admitted before it: on the immediate backend it returns
// once the workers have run the queue dry and the runtime is quiescent; on
// the single-goroutine backends the next Wait or Barrier drains the queue on
// the caller. It is idempotent.
func (rt *Runtime) Close() {
	d := rt.d
	d.mu.Lock()
	d.tq.Seal()
	wakeAll(&rt.idle)
	d.mu.Unlock()
	if rt.metricsSrv != nil {
		rt.metricsSrv.Close()
	}
	rt.wg.Wait()
}

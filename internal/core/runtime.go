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
//     bookkeeping, never across a thread body — unless every worker is
//     busy: then a scalar store appends its word to the stage, under the
//     stage's own leaf lock, and a flush admits the stage in one hold.
//  3. rt.mu, the management lock: Register/Attach/Cancel and registry
//     mutations. Never taken on the store path. Lock order is rt.mu →
//     the dispatch lock → leaf locks (batchMu, stage.mu, recording.mu); the
//     reverse order is never taken.
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

	// idleN counts the idle workers: a worker adds itself before it looks at
	// the stage for the last time, and whoever pops it off idle subtracts
	// it, so it equals len(idle) whenever the dispatch lock is free. A
	// producer reads it lock-free to decide whether to stage (stageWord).
	idleN atomic.Int32
	// stg is the stage of a busy runtime's scalar triggers, nil unless New
	// found the runtime may stage (see stage).
	stg *stage
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
		if cfg.QueueCapacity >= 2*stageMax && rt.obs.on&(withChecker|withRecorder) == 0 {
			rt.stg = new(stage)
		}
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
	// Staged words resolve against the attachments they were stored under.
	rt.flush()
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

// Cancel detaches thread t and squashes its pending instances (tcancel),
// the staged ones included: it flushes the stage first. It takes the
// management lock and then the dispatch lock.
func (rt *Runtime) Cancel(t ThreadID) {
	rt.flush()
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
//
// Before it sleeps the joiner helps, by a bound: when t's run token is free
// and the ring holds at most claimMax entries of t — one claim's worth — it
// takes them (DequeueRun, filtered on t) and runs them itself through the
// worker's bracket, as queued instances (Executed, the sweep, the cancel
// epoch). A larger backlog is what admission woke a worker for, and two
// executors on one thread's backlog put each other to sleep: a join that
// helped with any backlog cost the fine-grained kernels and ingest about 3%
// (see ROADMAP item 17). Admission wakes a worker for every enqueue but one
// kind: a joined write (Region.TStoreBatchJoin) whose join will run
// everything the ring holds (joinLocked) wakes none, and calls here next on
// its own goroutine. So liveness rests on a joiner only for the entries its
// own write admitted.
//
// Namespace.Close also calls it, on every backend, after Cancel, to let an
// in-flight instance finish before the namespace's regions are freed — a
// cancelled instance keeps executing against the entries it captured, and a
// store it issues through a freed region would land in an address range the
// arena may already have handed to another tenant. On the single-goroutine
// backends a running instance cannot coexist with the caller, so the
// predicate holds immediately. Must not be called with rt.mu or the
// dispatch lock held, nor from a support-thread body of t.
func (rt *Runtime) drainThread(t ThreadID) {
	var c claim
	d := rt.d
	d.mu.Lock()
	for {
		// At entry and after every wake: the caller's own staged stores, and
		// a cascade a body staged, may trigger t.
		rt.flushHeld()
		te := entryOf(rt.threadsSnap(), t)
		if te == nil || d.quietLocked(te, t) {
			break
		}
		if te.running == 0 && d.tq.PendingCount(t) <= claimMax {
			n := d.tq.DequeueRun(func(e queue.Entry) bool { return e.Thread == t }, c.es[:])
			rt.runClaimLocked(te, &c, n, true)
			continue
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
// range either the stage or dispatchFired, with the registry's zero-copy
// prefix of candidates and the one word on the stack. It reports whether the
// word changed.
//
// The fast paths are allocation-free and ordered cheapest-first: a silent
// store is one atomic load; a changing store to an unattached address adds
// the swap and a lock-free index probe (two comparisons when the address is
// far from every trigger range), either plus its counter's atomic add. A
// changing store inside a trigger range stages its word while every worker
// is busy (stageWord): the stage's lock, held for one append, and its count's
// store. Any other takes the dispatch lock — once however many threads it
// fires — and counts itself under it: three locked instructions, the swap,
// the lock and the unlock.
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
	if !covers(cands, word[0]) {
		rt.stats.changing.Add(1)
		return true
	}
	s := rt.stg
	if s != nil && rt.idleN.Load() == 0 && rt.stageWord(s, word[0]) {
		return true
	}
	// dispatchFired for the one word, written out: the scalar store is the
	// hot caller, and the wrapper's call cost it 2-4 ns a store. Room on the
	// stack for the overflow of a word one thread covers.
	var spill [1]queue.Entry
	inline := spill[:0]
	d := rt.d
	d.mu.Lock()
	if s != nil && s.n.Load() > 0 {
		inline = rt.flushLocked(inline)
	}
	inline = rt.admitWriteLocked(cands, word[:], inline, g, 1, nil)
	d.mu.Unlock()
	rt.afterWrite(inline)
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

// admitRunLocked is pipeline stage two, admission: it offers the fired
// triggers of thread id at addrs — a run of words whose first covering
// attachment of id is a — to the thread queue, in order, and is the only
// writer of the Fired = Enqueued + Squashed + Overflowed identity: fired moves
// here by the offers each EnqueueRun takes, and the queue's counters (the
// admission counters) by one decomposition counter per offer, inside
// EnqueueRun, whose only call site this is, in one critical section, so the
// identity holds under the dispatch lock at all times. Callers hold rt.d.mu
// and pass a, what attachmentAt answers for addrs on id's record te under that
// lock: its pending set is the dedup key. A nil a is a run whose range a
// concurrent Cancel detached between the registry snapshot and this lock: it
// never happened, and counts nothing. An offer that overflows ends an
// EnqueueRun call: on the immediate backend when the thread's run token (te's)
// is held, it is marked (queue.ThreadQueue.Mark) and counted in busy, for the
// holder to sweep; any other is appended to inline, which is returned, for the
// caller to run after its dispatch completes — never with the dispatch lock
// held. On a single-goroutine backend a held token is the writer's own
// enclosing bracket, which the inline run re-enters. Then the rest of the run
// is offered. For the entries that entered the ring the caller owes the queue
// its settlement — the busy count, a queue-depth sample and a worker wakeup —
// which dispatchFired, the only caller, pays once per write.
func (rt *Runtime) admitRunLocked(te *threadEntry, a *attachment, id ThreadID, addrs []mem.Addr, g uint64, inline []queue.Entry) []queue.Entry {
	if a == nil {
		return inline
	}
	d := rt.d
	for len(addrs) > 0 {
		k, enq, overflowed := d.tq.EnqueueRun(id, addrs, &a.pend)
		d.c.fired += int64(k)
		if overflowed {
			if addr := addrs[k-1]; te.running != 0 && rt.cfg.Backend == BackendImmediate {
				d.tq.Mark(id, addr, &a.pend)
				d.busy++
			} else {
				inline = append(inline, queue.Entry{Thread: id, Addr: addr})
			}
		}
		rt.obs.admit(g, id, addrs[:k], enq, overflowed, d.tq)
		addrs = addrs[k:]
	}
	return inline
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

// soleCover returns the index in cands of the one candidate covering addr,
// or -1 when several candidates cover addr (or none does).
func soleCover(cands []queue.Attachment, addr mem.Addr) int {
	c := -1
	for i := range cands {
		if x := &cands[i]; x.Lo <= addr && addr < x.Hi {
			if c >= 0 {
				return -1
			}
			c = i
		}
	}
	return c
}

// runWindow returns the window [lo, hi) around addr over which cands[c] is
// the only candidate and a, te's first attachment covering addr, stays the
// first covering one: cands[c]'s range and a's, less the ranges of the other
// candidates and of the attachments before a. Each of those lies wholly below
// or wholly above addr, which nothing but cands[c] covers and no attachment
// before a covers. The words of a run are the ones inside the window.
func runWindow(cands []queue.Attachment, c int, te *threadEntry, a *attachment, addr mem.Addr) (lo, hi mem.Addr) {
	lo, hi = max(cands[c].Lo, a.lo), min(cands[c].Hi, a.hi)
	for i := range cands {
		if x := &cands[i]; x.Hi <= addr {
			lo = max(lo, x.Hi)
		} else if x.Lo > addr {
			hi = min(hi, x.Lo)
		}
	}
	for i := range te.atts {
		b := &te.atts[i]
		if b == a {
			break
		}
		if b.hi <= addr {
			lo = max(lo, b.hi)
		} else {
			hi = min(hi, b.lo)
		}
	}
	return lo, hi
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
// Region.TStoreBatchJoin: semantically len(vs) scalar tstores, with the
// dispatch overhead amortized over the span. It returns how many words
// changed. j is nil, or the joiner dispatchFired decides for.
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
func (rt *Runtime) tstoreBatch(r *Region, lo int, vs []mem.Word, j *joiner) int {
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

	sc.inline = rt.dispatchFired(sc.cands, sc.words, sc.inline, g, changed, j)
	if changed > 0 {
		rt.afterWrite(sc.inline)
	}
	rt.putScratch(sc)
	return changed
}

// dispatchFired is the dispatch phase of every triggering write — a scalar
// store (which writes it out for its one word), a batch, a merge — stages
// three and 3a of the pipeline. words are the write's changed words that
// some attachment in cands covers, cands the attachments the write resolved
// against one registry snapshot, in index order, and stores the write's
// changed tstore words (0 for a merge).
//
// A write that covers nothing takes no lock: it counts its stores lock-free.
// Any other takes the dispatch lock exactly once, counts its stores under it,
// and admits the covering (thread, word) pairs in words × cands order — the
// matches a per-word registry lookup would produce, in its order — cut into
// runs: a stretch of words that one candidate alone covers and whose first
// covering attachment of the candidate's thread is the same (runWindow) is
// one admitRunLocked call, which hands it to the queue in one EnqueueRun. The
// write's last word and a word several candidates cover are admitted pair by
// pair, each pair a run of one: the scalar store's one word pays no window.
// Each pair moves fired plus exactly one of enqueued/squashed/overflowed, so
// the identity Fired = Enqueued + Squashed + Overflowed holds whenever the
// lock is free, and busy, the queue-depth sample and the worker wakeup settle
// once per write, for the ring's growth under this hold. Overflowed pairs are
// marked or appended to inline (admitRunLocked), which is returned for the
// caller's afterWrite.
//
// j is nil for a plain write. For a joined one (Region.TStoreBatchJoin) it
// takes the lock even when nothing is covered, decides the join in the same
// hold (joinLocked), and wakes no worker when the join will run everything
// the ring holds. That is the whole liveness rule for the ring: every enqueue
// either wakes a worker or is followed, on the same goroutine, by a
// drainThread of the entry's thread. A write that takes the lock first
// flushes the stage in the same hold (flushLocked), so the staged stores
// before it keep their order ahead of its own words.
func (rt *Runtime) dispatchFired(cands []queue.Attachment, words []mem.Addr, inline []queue.Entry, g uint64, stores int, j *joiner) []queue.Entry {
	if len(words) == 0 && j == nil {
		if stores > 0 {
			rt.stats.changing.Add(int64(stores))
		}
		return inline
	}
	d := rt.d
	d.mu.Lock()
	if s := rt.stg; s != nil && s.n.Load() > 0 {
		inline = rt.flushLocked(inline)
	}
	inline = rt.admitWriteLocked(cands, words, inline, g, stores, j)
	d.mu.Unlock()
	return inline
}

// admitWriteLocked is dispatchFired's critical section, and a flush's: it
// counts the write's stores, admits its words run by run and settles the
// ring's growth. Callers hold the dispatch lock.
func (rt *Runtime) admitWriteLocked(cands []queue.Attachment, words []mem.Addr, inline []queue.Entry, g uint64, stores int, j *joiner) []queue.Entry {
	// The thread table is loaded after the registry snapshot that produced
	// cands, so every id in them is in range.
	ths := rt.threadsSnap()
	d := rt.d
	d.c.changing += int64(stores)
	before := d.tq.Len()
	for i := 0; i < len(words); {
		addr := words[i]
		if i+1 < len(words) {
			if c := soleCover(cands, addr); c >= 0 {
				id := cands[c].Thread
				te := ths[id]
				a := te.attachmentAt(addr)
				n := 1
				if a != nil {
					// The run: the words behind addr that stay in the window
					// where cands[c] is the only candidate and a the first
					// covering attachment. Merge words come in dirty order,
					// so the window is two-sided, and the unsigned difference
					// tests both sides at once.
					lo, hi := runWindow(cands, c, te, a, addr)
					for i+n < len(words) && words[i+n]-lo < hi-lo {
						n++
					}
				}
				inline = rt.admitRunLocked(te, a, id, words[i:i+n], g, inline)
				i += n
				continue
			}
		}
		// The write's last word, or one several candidates cover: one pair
		// per covering candidate, in index order.
		for _, c := range cands {
			if c.Lo <= addr && addr < c.Hi {
				te := ths[c.Thread]
				inline = rt.admitRunLocked(te, te.attachmentAt(addr), c.Thread, words[i:i+1], g, inline)
			}
		}
		i++
	}
	enqueued := d.tq.Len() - before
	helps := j != nil && rt.joinLocked(j)
	if enqueued > 0 {
		d.busy += int64(enqueued)
		// One depth sample per write: the depth after its admissions, not
		// one sample per entry.
		rt.obs.queueDepth(d.tq)
		if !helps {
			rt.wakeWorker()
		}
	}
	return inline
}

// stageMax is the most words the stage holds. Swept on bench's kernels_fine
// and ingest (see DESIGN.md "The stage"); a full stage flushes on the store
// that filled it.
const stageMax = 64

// stage holds the fired words of changing covered scalar stores made while
// every worker is busy, in store order, for one admission of them all: the
// paper's thread queue takes a tstore's entry without stalling the main
// thread, and the stage is how a store here avoids the dispatch lock the
// workers claim under. A store stages only while no worker is idle (one that
// finds a worker idle admits directly and wakes it), and the words wait only
// while every worker runs a body. They are flushed (flushLocked) by the store
// that fills the stage, by the first write that takes the dispatch lock
// itself, by every sync point that reads or changes queue state — Wait,
// Barrier, Status, Stats, ShardCounters, Attach, Cancel, Close — and by a
// worker that finds nothing to claim, before it sleeps. The runtime has one,
// on the immediate backend, when its queue holds two full stages and no
// checker or recorder watches admission.
type stage struct {
	mu sync.Mutex
	// n is the number of staged words, stored under mu and read lock-free.
	n atomic.Int32
	// closed is set by Close: nothing stages after it.
	closed bool               //dtt:guards mu
	words  [stageMax]mem.Addr //dtt:guards mu
	// out and cands are a flush's scratch — the words it took and the
	// attachments overlapping their span — guarded by the dispatch lock
	// every flush holds.
	out   [stageMax]mem.Addr //dtt:guards dispatcher.mu
	cands []queue.Attachment //dtt:guards dispatcher.mu
}

// stageWord appends addr, a changed word some attachment covered, to the
// stage s and reports true, or reports false — for the store to admit
// directly — when Close has shut the stage or a racing producer filled it.
// The count is published (seq-cst) before the idle count is read, and a
// worker publishes its idleness before it reads the count (worker), so one
// of the two sees the other: a store that finds a worker idle flushes, and a
// worker that finds words staged flushes instead of sleeping. No staged word
// is stranded.
func (rt *Runtime) stageWord(s *stage, addr mem.Addr) bool {
	s.mu.Lock()
	k := s.n.Load()
	if k == stageMax || s.closed {
		s.mu.Unlock()
		return false
	}
	s.words[k] = addr
	s.n.Store(k + 1)
	s.mu.Unlock()
	if k+1 == stageMax || rt.idleN.Load() > 0 {
		rt.flush()
	}
	return true
}

// flushLocked takes the stage's words and admits them as one write of that
// many changing scalar stores: admitWriteLocked against the attachments that
// overlap their span now, so every counter and verdict comes from the path
// batches and merges take, and T0 is stamped here. It returns inline extended
// by what overflowed, for the caller to run with no lock held. Callers hold
// the dispatch lock and know rt.stg is not nil.
func (rt *Runtime) flushLocked(inline []queue.Entry) []queue.Entry {
	s := rt.stg
	s.mu.Lock()
	n := copy(s.out[:], s.words[:s.n.Load()])
	s.n.Store(0)
	s.mu.Unlock()
	if n == 0 {
		return inline
	}
	words := s.out[:n]
	lo, hi := words[0], words[0]
	for _, a := range words[1:] {
		lo, hi = min(lo, a), max(hi, a)
	}
	s.cands = rt.reg.Snapshot().Overlapping(lo, hi+mem.WordBytes, s.cands[:0])
	return rt.admitWriteLocked(s.cands, words, inline, 0, n, nil)
}

// flushHeld flushes a non-empty stage from a caller that holds the dispatch
// lock and runs what overflowed (runInlineLocked, which drops the lock
// around the bodies only), and returns holding it.
func (rt *Runtime) flushHeld() {
	if s := rt.stg; s == nil || s.n.Load() == 0 {
		return
	}
	var spill [1]queue.Entry
	if inline := rt.flushLocked(spill[:0]); len(inline) > 0 {
		rt.runInlineLocked(inline)
	}
}

// flush is flushHeld for a caller that holds no lock.
func (rt *Runtime) flush() {
	if s := rt.stg; s == nil || s.n.Load() == 0 {
		return
	}
	rt.d.mu.Lock()
	rt.flushHeld()
	rt.d.mu.Unlock()
}

// joiner is a joined write's thread: the one whose Wait the writing
// goroutine makes before the write returns, when run is set. dispatchFired
// sets run; it stays on the writer's stack.
type joiner struct {
	t   ThreadID
	run bool
}

// joinLocked decides a joined write's join in the critical section that
// admitted it: the join runs when t's backlog fits one claim, the most a
// joiner runs itself (drainThread). It reports whether that join will run
// everything the ring holds — t's run token is free and the ring holds t's
// entries only — so that a worker woken now would find nothing to claim.
// Callers hold the dispatch lock.
func (rt *Runtime) joinLocked(j *joiner) bool {
	d := rt.d
	n := d.tq.PendingCount(j.t)
	j.run = n <= claimMax
	te := entryOf(rt.threadsSnap(), j.t)
	return j.run && te != nil && te.running == 0 && d.tq.Len() == n
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
		rt.idleN.Add(-1)
		rt.d.c.workerWakes++
	}
}

// wakeIdle wakes every idle worker, for Close's seal: they exit once the
// runtime is quiescent. Callers hold the dispatch lock.
func (rt *Runtime) wakeIdle() {
	rt.idleN.Add(-int32(len(rt.idle)))
	wakeAll(&rt.idle)
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
			rt.wakeIdle()
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

// brokenLocked reports a broken runtime invariant found under the dispatch
// lock: it releases the lock, then panics with the message format makes of
// args. A panic that left the lock held would hang every deferred call that
// takes it as the panic unwinds — a test's deferred Close among them — where
// it must fail at once. The arguments are int64s so that a pinned caller
// boxes nothing: the message is built here, on the panic's path only.
func (d *dispatcher) brokenLocked(format string, args ...int64) {
	d.mu.Unlock()
	as := make([]any, len(args))
	for i, a := range args {
		as[i] = a
	}
	panic(fmt.Sprintf(format, as...))
}

// resolveLocked builds the Triggers of the run c.es[:n] — entries of one
// thread, te's — from the thread's own attachment list: the attachment is
// looked up for the first entry and again only when an address leaves its
// range. Any attachment covering an address names the address's one region,
// so the claim side need not find the first. Callers hold d's lock, which
// guards atts.
func (te *threadEntry) resolveLocked(d *dispatcher, c *claim, n int) {
	var a *attachment
	for i := range c.es[:n] {
		e := &c.es[i]
		if a == nil || e.Addr < a.lo || e.Addr >= a.hi {
			if a = te.attachmentAt(e.Addr); a == nil {
				// An entry can only exist for an attached range: the enqueue
				// side re-checks the attachment under the dispatch lock, and
				// Cancel squashes entries under the same lock when detaching.
				// Reaching here is a runtime bug.
				d.brokenLocked("core: queue entry for thread %d addr %#x has no attachment", int64(e.Thread), int64(e.Addr))
			}
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
// worker's claim, a helping join's, drain's pick, a group of runInline's
// overflowed entries — runs c.es[:n], n >= 1 entries of the thread whose
// record is te. It takes the thread's run token once (re-entrantly, when an
// overflowed cascade re-enters its own thread on a single-goroutine backend)
// and runs the entries: under the dispatch lock it resolves the triggers and
// reads the cancel epoch, runs the bodies back to back with no lock held and
// settles the run in one endRunLocked. A Cancel of the thread since the
// claim stops the run before its next body; a body that panics resumes the
// run behind it. Then the sweep: before the token goes, its holder takes the
// marks that overflows onto the held token left (queue.ThreadQueue.TakeMarks)
// and runs them the same way as inline runs, up to claimMax at a time, until
// none is left. Marks exist only while the token is held, so the release
// leaves none behind. Entered and left with rt.d.mu held.
func (rt *Runtime) runClaimLocked(te *threadEntry, c *claim, n int, queued bool) {
	d := rt.d
	t := c.es[0].Thread
	inline := !queued // what this bracket's first run was; marks run inline
	te.running++
	for {
		te.resolveLocked(d, c, n)
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
		if n = d.tq.TakeMarks(t, c.es[:]); n == 0 {
			break
		}
		queued = false
	}
	te.running--
	rt.finishLocked(te, t)
	if inline && te.running == 0 && d.tq.Pending(t) {
		// Entries of t that workers skipped while this inline run held the
		// token are dispatchable again, and the finisher is no worker.
		rt.wakeWorker()
	}
}

// endRunLocked settles one run of n entries of thread t: it counts one
// outcome per started body, in order — Executed or FailedRuns for a queued
// instance, InlineRuns (and FailedRuns) for an overflowed one. The n -
// len(oks) entries a Cancel stopped the run before are cancelled work:
// queued ones are neither executed nor failed, overflowed ones count
// Dropped, keeping Overflowed = InlineRuns + Dropped. Then it drops the busy
// count by n. A settle of more entries than busy counts in flight panics
// before it changes anything, with the lock released (brokenLocked). Callers
// hold rt.d.mu.
func (rt *Runtime) endRunLocked(t ThreadID, queued bool, n int, oks ...bool) {
	d := rt.d
	if d.busy < int64(n) {
		d.brokenLocked("core: thread %d settled %d entries with %d in flight", int64(t), int64(n), d.busy)
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
// (admitRunLocked) synchronously in the writer, in admission order, honouring
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
	rt.d.mu.Lock()
	rt.runInlineLocked(inline)
	rt.d.mu.Unlock()
}

// runInlineLocked is runInline for a caller that holds the dispatch lock,
// which it drops around the bodies only (runClaimLocked).
func (rt *Runtime) runInlineLocked(inline []queue.Entry) {
	immediate := rt.cfg.Backend == BackendImmediate
	ths := rt.threadsSnap()
	var c claim
	d := rt.d
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
}

// claimMax bounds how many entries of one thread a worker takes off the
// queue per critical section. Measured on bench's ingest workload (one producer,
// one worker, nproc 2, 2 seeds x 5 s, M ops/s): 1 -> 13.2, 4 -> 16.6,
// 8 -> 17.2, 16 -> 16.7, 64 -> 17.0, 256 -> 18.1. Flat past 4, so it is a
// constant, not a knob; 16 keeps the redundant instances a re-store to a
// claimed address can cost (claimMax-1 per claim, see DESIGN.md) and a
// worker's scratch (about 1 KB) small.
const claimMax = 16

// WaitHelpMax is the largest backlog of one thread that Wait runs itself on
// the immediate backend, when no worker holds the thread's run: one claim
// (see drainThread). A larger backlog waits for a worker. It is also the
// largest backlog a joined batch joins (Region.TStoreBatchJoin).
const WaitHelpMax = claimMax

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
// sleeps on rt.idle in the same hold of the lock (wakeWorker) — unless words
// are staged, which it flushes and then claims — and once Close has sealed
// the queue it exits at the first look that finds the runtime quiescent:
// nothing queued, nothing running. There is no spinning before
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
			// Idle before the last look at the stage (see stageWord): a
			// worker flushes staged words instead of sleeping on them.
			rt.idleN.Add(1)
			if s := rt.stg; s != nil && s.n.Load() > 0 {
				rt.idleN.Add(-1)
				rt.flushHeld()
				continue
			}
			d.sleepLocked(&rt.idle)
			continue
		}
		rt.runClaimLocked(ths[c.es[0].Thread], &c, n, true)
	}
}

// Wait blocks until thread t has no pending or running instances (twait).
// The single-goroutine backends run the queue on the caller (drain). The
// immediate backend joins in drainThread: while t's run token is free and
// at most WaitHelpMax of t's entries (one claim) are queued, the caller
// runs them itself, as a worker would; otherwise it sleeps until t is
// quiet. Either way t's instances stay serial and in enqueue order.
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
// shape, with the whole runtime as the thread. Staged stores count: the
// loop flushes the stage before each look.
func (rt *Runtime) Barrier() {
	rt.stats.barriers.Add(1)
	j := rt.obs.beginJoin("dtt.Barrier")
	// Like Wait, Barrier merges pending commutative deltas (blocking)
	// before confirming quiescence.
	rt.mergeAllPlanes()
	if rt.cfg.Backend == BackendImmediate {
		d := rt.d
		d.mu.Lock()
		// The stage is flushed at entry and after every wake: a body that
		// stores can stage a cascade after busy reached zero.
		for rt.flushHeld(); d.busy != 0; rt.flushHeld() {
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
// thread never registered is idle. The stage is flushed first, so a staged
// trigger of t reads Pending.
func (rt *Runtime) Status(t ThreadID) queue.Status {
	d := rt.d
	d.mu.Lock()
	defer d.mu.Unlock()
	rt.flushHeld()
	switch te := entryOf(rt.threadsSnap(), t); {
	case te != nil && te.running > 0:
		return queue.StatusRunning
	case d.tq.Pending(t):
		return queue.StatusPending
	}
	return queue.StatusIdle
}

// ShardCounters returns the thread queue's lifetime counters (see
// queue.Counters for the invariant they obey), staged words flushed first,
// as a one-element slice: the shape of the per-shard breakdown the runtime
// reported when its queue was split.
func (rt *Runtime) ShardCounters() []queue.Counters {
	rt.d.mu.Lock()
	defer rt.d.mu.Unlock()
	rt.flushHeld()
	return []queue.Counters{rt.d.tq.Counters()}
}

// Close seals the thread queue, so every later trigger that is not squashed
// overflows and runs inline on the storing goroutine, on every backend. It
// strands nothing admitted before it: on the immediate backend it returns
// once the workers have run the queue dry and the runtime is quiescent; on
// the single-goroutine backends the next Wait or Barrier drains the queue on
// the caller. It shuts the stage and flushes it first, so nothing staged is
// stranded and nothing stages after it. It is idempotent.
func (rt *Runtime) Close() {
	if s := rt.stg; s != nil {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		rt.flush()
	}
	d := rt.d
	d.mu.Lock()
	d.tq.Seal()
	rt.wakeIdle()
	d.mu.Unlock()
	if rt.metricsSrv != nil {
		rt.metricsSrv.Close()
	}
	rt.wg.Wait()
}

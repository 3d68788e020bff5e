package core

import "sync/atomic"

// statsCounters are the runtime's lock-free counters: the ones updated on
// paths that hold no lock (the silent-store fast path, Wait/Barrier entry)
// and bound by no cross-counter identity, so a torn read across them is
// harmless. Counters that do participate in an identity live in the
// dispatch plane's dispatchStats instead.
type statsCounters struct {
	// silent, changing and dispatchStats.changing partition the triggering
	// stores; Stats derives TStores as their sum. The writes that take no
	// lock — silent words, or changed words covering no thread — pay one
	// atomic add here; a write that admits something counts its changed
	// words in dispatchStats.changing, under the dispatch lock it holds.
	silent   atomic.Int64
	changing atomic.Int64
	waits    atomic.Int64
	barriers atomic.Int64
	cancels  atomic.Int64
	// Merge-plane counters (see update.go). They are updated only under a
	// plane's merge lock, so within one plane silentMerges and
	// mergedUpdates move together; across planes a torn read is harmless
	// and the loading order in Stats keeps SilentMerges <= MergedUpdates.
	merges        atomic.Int64
	mergedUpdates atomic.Int64
	silentMerges  atomic.Int64
	// retiredUpdates carries the lifetime op counts of update planes whose
	// regions have been released (releaseRegionLocked folds them in), so
	// TUpdates stays monotone across namespace churn.
	retiredUpdates atomic.Int64
}

// dispatchStats are the dispatch plane's trigger counters: plain int64s
// guarded by the dispatch lock, which the paths that update them already
// hold (or take briefly, on the inline-overflow slow path). A plain add
// under a lock already held is cheaper than a process-wide atomic, and
// Stats reads them under the same lock for a torn-free snapshot: fired and
// its decomposition move together in one critical section, so the identity
//
//	fired = enqueued + squashed + overflowed
//
// holds under the lock at all times. The decomposition is the queue's own
// queue.Counters, bumped inside tq.EnqueueRun in the critical section that
// bumps fired.
type dispatchStats struct {
	// changing counts the changed tstore words of the writes that admit
	// something, under the lock dispatchFired holds, and a stage's words at
	// their flush; it is in no identity.
	changing   int64
	fired      int64
	dropped    int64
	inlineRuns int64
	executed   int64
	failedRuns int64
	// workerWakes counts the idle workers wakeWorker popped.
	workerWakes int64
}

// Stats is a point-in-time snapshot of runtime activity. The relationships
// the counters obey:
//
//	TStores   = Silent + value-changing tstores (counted lock-free, or under the dispatch lock by a write that admits something)
//	Fired     = triggers offered to the queue (per attached thread)
//	Fired     = Enqueued + Squashed + Overflowed
//	Overflowed = InlineRuns + Dropped   (once the run has quiesced)
//	Executed  = queue-dispatched instances completed successfully
//	MergedUpdates = SilentMerges + value-changing merge stores (quiescent)
//
// The merge-plane counters (TUpdates, Merges, MergedUpdates, SilentMerges)
// describe the commutative-update path: TUpdates counts producer-side ops
// folded into privatized deltas, MergedUpdates counts words a merge
// applied to memory, and SilentMerges counts the merges whose net effect
// was the value already there — the generalized silent store. A changing
// merge store enters the Fired accounting exactly like a changing tstore,
// so the Fired identity is undisturbed. TStores/Silent do NOT include
// updates or merges.
//
// A support-thread body that panics is recovered by the runtime and counted
// in FailedRuns instead of Executed (an inline overflow run that panics
// counts in both InlineRuns and FailedRuns, keeping the Overflowed
// identity).
type Stats struct {
	// TStores counts triggering stores issued.
	TStores int64
	// Silent counts triggering stores that wrote an unchanged value: the
	// redundant computation the runtime skipped.
	Silent int64
	// Fired counts value-changing tstores per attached thread.
	Fired int64
	// Enqueued counts new thread-queue entries.
	Enqueued int64
	// Squashed counts triggers absorbed by duplicate squashing.
	Squashed int64
	// Overflowed counts triggers that found the queue full (a queue Close
	// has sealed is always full).
	Overflowed int64
	// Dropped counts overflowed triggers whose thread a Cancel detached
	// before their inline run could start — marks included: cancelled
	// work, never executed.
	Dropped int64
	// InlineRuns counts overflowed triggers executed inline: by the
	// storing goroutine, or by the holder of the thread's run token when
	// the trigger overflowed onto a held token (a mark).
	InlineRuns int64
	// Executed counts queue-dispatched support instances completed.
	Executed int64
	// FailedRuns counts support-thread bodies (queue-dispatched or
	// inline) that panicked; the panic is recovered and the thread runs
	// again on its next trigger.
	FailedRuns int64
	// Waits and Barriers count synchronisation operations.
	Waits    int64
	Barriers int64
	// Cancels counts tcancel operations.
	Cancels int64
	// WorkerWakes counts idle workers woken to claim work (immediate
	// backend): a producer's or a finished run's wake of a parked worker,
	// not Close's wake of all of them.
	WorkerWakes int64
	// TUpdates counts commutative update operations applied to privatized
	// delta planes (Region.TUpdate/TUpdateBatch).
	TUpdates int64
	// Merges counts merge operations that found pending deltas to apply.
	Merges int64
	// MergedUpdates counts words a merge applied to memory.
	MergedUpdates int64
	// SilentMerges counts merged words whose net effect left memory
	// unchanged: the redundant computation the update plane skipped.
	SilentMerges int64
}

// SilentFraction returns Silent/TStores, or 0 when no tstores ran.
func (s Stats) SilentFraction() float64 {
	if s.TStores == 0 {
		return 0
	}
	return float64(s.Silent) / float64(s.TStores)
}

// SquashFraction returns Squashed/Fired, or 0 when nothing fired.
func (s Stats) SquashFraction() float64 {
	if s.Fired == 0 {
		return 0
	}
	return float64(s.Squashed) / float64(s.Fired)
}

// Stats returns a consistent snapshot of the runtime's counters: the
// dispatch counters are read under the dispatch lock, so a snapshot
// concurrent with producers and workers still satisfies Fired = Enqueued +
// Squashed + Overflowed — the identity the runtime documents and the
// polling metrics exporter re-asserts on every scrape. An earlier revision
// loaded one process-wide atomic per counter and could tear: a reader
// interleaving with a firing store saw Fired without the matching Enqueued.
//
// The lock-free counters carry no cross-counter identity; TStores is the
// sum of the silent count and the changing counts, lock-free and locked,
// so Silent <= TStores by construction. The stage is flushed first: a
// staged store is counted — TStores, Fired and its verdict — at its flush.
func (rt *Runtime) Stats() Stats {
	var s Stats
	d := rt.d
	d.mu.Lock()
	rt.flushHeld()
	c, q := &d.c, d.tq.Counters()
	s.TStores = c.changing
	s.Fired = c.fired
	s.Enqueued = q.Enqueued
	s.Squashed = q.Squashed
	s.Overflowed = q.Overflowed
	s.Dropped = c.dropped
	s.InlineRuns = c.inlineRuns
	s.Executed = c.executed
	s.FailedRuns = c.failedRuns
	s.WorkerWakes = c.workerWakes
	d.mu.Unlock()
	s.Silent = rt.stats.silent.Load()
	s.TStores += s.Silent + rt.stats.changing.Load()
	s.Waits = rt.stats.waits.Load()
	s.Barriers = rt.stats.barriers.Load()
	s.Cancels = rt.stats.cancels.Load()
	// SilentMerges loads before MergedUpdates so that a concurrent merge
	// can never make the silent count exceed the total in the snapshot.
	s.SilentMerges = rt.stats.silentMerges.Load()
	s.MergedUpdates = rt.stats.mergedUpdates.Load()
	s.Merges = rt.stats.merges.Load()
	// TUpdates is summed from the planes' stripe counters under their
	// stripe locks: counting there keeps the apply fast path free of any
	// cross-producer shared write. The retired total and the live-plane
	// list are read together under rt.mu — releaseRegionLocked mutates
	// both (folding a retiring plane's ops into retiredUpdates, then
	// pruning it from the list) while holding that lock, and no load
	// ordering makes the pair tear-free without it: reading retired first
	// can miss a plane retired in between entirely, reading it last can
	// count one twice. Either tear would make TUpdates dip across calls.
	rt.mu.Lock()
	s.TUpdates = rt.stats.retiredUpdates.Load()
	if ps := rt.updPlanes.Load(); ps != nil {
		for _, u := range *ps {
			s.TUpdates += u.plane.Ops()
		}
	}
	rt.mu.Unlock()
	return s
}

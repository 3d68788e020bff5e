// Commutative triggering updates: the merge plane.
//
// Region.TUpdate generalizes the triggering store for hot counter-shaped
// regions. A scalar TStore serializes every producer through the target
// word and fires per change; TUpdate instead folds a declared-commutative
// op (add, min, max, and, or, set) into a per-producer-stripe privatized
// delta cell (mem.DeltaPlane) — no cross-producer contention, no
// allocation — and defers the trigger to the *merge*. A merge is one fold:
// DeltaPlane.Collect folds every stripe's pending phases straight onto
// their words' values, and the runtime stores each folded value as a
// triggering store. Deduplication thereby generalizes from "value
// unchanged" to "net effect unchanged": a merge that nets to the value
// already in memory is a silent merge, the squash-equivalent, and fires
// nothing.
//
// # Merge points and visibility
//
// A merge is the visibility point of updates: until one runs, neither
// memory nor any support thread observes pending deltas. Merges happen
// where the program observes the result, and nowhere else:
//
//   - at Wait/Barrier (blocking: the sync point owns the merge);
//   - at Region.Load (best-effort: a TryLock, skipped when another merge
//     is in flight — pending deltas survive a skipped merge and the next
//     merge point applies them).
//
// Merge words go through the pipeline stages every triggering write uses
// (the compare-and-store, the write hook, an interval test per word, then
// admitRunLocked — coverage re-check, Fired identity), so the
// trigger-observable semantics match a TStore of the merged value. The words
// reach admission in the order Collect first met them, not sorted; runs of
// them that stay in one thread's window enter the ring in one EnqueueRun
// each. A merge is a bulk operation over privatized deltas, not N scalar
// stores: it resolves the attachments overlapping its region against one
// registry snapshot, once, writes its words and tests each against those
// candidates — so, like a batch, a merge orders wholly before or wholly
// after a concurrent Attach/Cancel — and admits the covered words under one
// hold of the dispatch lock (dispatchFired, as every triggering write
// does), which first flushes the stage: a scalar store staged before the
// merge is admitted ahead of the merge's words. On the seeded backend the
// whole merge is one preemption point at its end, like a batch.
//
// # Lock order
//
// A plane's merge lock (updatePlane.mergeMu) is taken before stripe locks
// (inside Collect) and before the dispatch lock (inside dispatchFired), never
// inside either. rt.mu may be held while acquiring mergeMu —
// releaseRegionLocked does so to kill a plane before freeing its region —
// which is safe because the converse never happens: a mergeMu holder never
// acquires rt.mu (armUpdates takes rt.mu but never merges; mergePlane
// touches only stripe locks, the dispatch lock and leaf locks). Inline
// overflow runs execute after the merge lock is released.
package core

import (
	"fmt"
	"sync"

	"dtt/internal/mem"
)

// UpdateOp re-exports the commutative op set (see mem.UpdateOp).
type UpdateOp = mem.UpdateOp

// Commutative update operations.
const (
	UpdAdd = mem.UpdAdd
	UpdMin = mem.UpdMin
	UpdMax = mem.UpdMax
	UpdAnd = mem.UpdAnd
	UpdOr  = mem.UpdOr
	UpdSet = mem.UpdSet
)

// updatePlane pairs a region with its privatized delta storage and the
// merge lock that serializes mergers.
type updatePlane struct {
	r     *Region
	plane *mem.DeltaPlane
	// mergeMu admits one merger at a time. Sync points (Wait/Barrier)
	// block on it; Load TryLocks and skips — whoever holds the lock is
	// already merging the deltas it cares about, and anything that slips
	// past a skipped merge is caught at the next blocking point.
	mergeMu sync.Mutex
	// dead marks a plane whose region has been released. Guarded by
	// mergeMu: releaseRegionLocked sets it (and discards pending deltas)
	// under the lock before freeing the region's range, and mergePlane
	// re-checks it after acquiring the lock — so a merger that raced the
	// release through a stale updPlanes snapshot backs off instead of
	// storing into a freed (possibly re-allocated) address range.
	dead bool //dtt:guards mergeMu
}

// armUpdates creates the region's update plane on first TUpdate. The stripe
// count is defaultParallelism's: a single stripe keeps producer-order
// folding exact where merges are deterministic.
func (rt *Runtime) armUpdates(r *Region) *updatePlane {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if u := r.upd.Load(); u != nil {
		return u
	}
	u := &updatePlane{r: r, plane: mem.NewDeltaPlane(r.buf, defaultParallelism(rt.cfg.Backend == BackendImmediate))}
	var grown []*updatePlane
	if ps := rt.updPlanes.Load(); ps != nil {
		grown = append(grown, *ps...)
	}
	grown = append(grown, u)
	rt.updPlanes.Store(&grown)
	r.upd.Store(u)
	return u
}

// TUpdate folds a commutative op into word i's privatized delta, through
// ApplyBatch on a one-word span: the producer-side cost is one
// stripe-local lock and a cell write, with no cross-producer contention
// and no allocation in the steady state. The trigger fires on merge (see
// package comment in update.go); until then memory is unchanged and
// nothing dispatches.
//
// Mixing TUpdate with direct TStore/Store on the same word is legal only
// when a merge point separates them (merge order against an unmerged
// delta is otherwise unspecified). Min and max compare words as unsigned
// integers. Set is last-writer-wins with a per-stripe order guarantee
// only: deterministic on single-stripe planes (all single-goroutine
// backends); on the concurrent backend the stripe hint is affinity, not
// identity, so conflicting sets not separated by a merge point may
// resolve in either order (see mem.UpdSet).
func (r *Region) TUpdate(i int, op mem.UpdateOp, v mem.Word) {
	if i < 0 || i >= r.buf.Len() {
		panic(fmt.Sprintf("core: TUpdate index %d out of range of %q (%d words)", i, r.Name(), r.buf.Len()))
	}
	if !op.Valid() {
		panic(fmt.Sprintf("core: TUpdate with invalid op %d", op))
	}
	u := r.upd.Load()
	if u == nil {
		u = r.rt.armUpdates(r)
	}
	one := [1]mem.Word{v}
	u.plane.ApplyBatch(u.plane.Hint(), i, op, one[:])
}

// TUpdateBatch folds vs[j] into words lo+j under a single stripe lock,
// amortizing the lock and counter maintenance across the span — the
// update analogue of TStoreBatch. Semantics per word are identical to
// scalar TUpdate.
func (r *Region) TUpdateBatch(lo int, op mem.UpdateOp, vs []mem.Word) {
	if len(vs) == 0 {
		return
	}
	if lo < 0 || lo+len(vs) > r.buf.Len() {
		panic(fmt.Sprintf("core: TUpdateBatch [%d, %d) out of range of %q (%d words)",
			lo, lo+len(vs), r.Name(), r.buf.Len()))
	}
	if !op.Valid() {
		panic(fmt.Sprintf("core: TUpdateBatch with invalid op %d", op))
	}
	u := r.upd.Load()
	if u == nil {
		u = r.rt.armUpdates(r)
	}
	u.plane.ApplyBatch(u.plane.Hint(), lo, op, vs)
}

// mergeAllPlanes merges every armed plane with pending deltas, blocking
// on each merge lock; Wait and Barrier call it so sync points observe
// every completed update. The snapshot may be stale against a concurrent
// region release: a released plane reads Pending() == 0 (the release
// discards its deltas) and mergePlane re-checks the plane's dead flag
// under the merge lock, so a freed range is never merged into.
func (rt *Runtime) mergeAllPlanes() {
	ps := rt.updPlanes.Load()
	if ps == nil {
		return
	}
	for _, u := range *ps {
		if u.plane.Pending() > 0 {
			rt.mergePlane(u, true)
		}
	}
}

// mergePlane folds a plane's pending deltas onto their words (Collect) and
// stores each folded value: a changed word stores and fires like a
// triggering store of the merged value; a word whose net effect is the
// value already in memory is a silent merge and fires nothing. The covered
// changed words are admitted together at the end, still under the merge
// lock, the dispatch lock taken once. block selects a blocking acquisition
// of the merge lock (sync points) versus try-and-skip (Load).
func (rt *Runtime) mergePlane(u *updatePlane, block bool) {
	if block {
		u.mergeMu.Lock()
	} else if !u.mergeMu.TryLock() {
		return
	}
	if u.dead {
		// The region was released while we held a stale updPlanes
		// snapshot; its range may already belong to another tenant.
		u.mergeMu.Unlock()
		return
	}
	t0 := rt.obs.clock()
	merged := u.plane.Collect()
	n := len(merged)
	if n == 0 {
		u.mergeMu.Unlock()
		return
	}
	r := u.r
	g := rt.obs.checkGoid()
	// The candidates, the covered words and the inline list ride the pooled
	// batch scratch so a steady merge cadence allocates nothing.
	sc := rt.getScratch()
	// One index resolution per merge: every word of the plane lies in r, so
	// the attachments overlapping r's span are the candidates of each.
	sc.begin(rt.reg.Snapshot(), r.buf.Addr(0), r.buf.Addr(r.buf.Len()))
	changed := 0
	for _, m := range merged {
		// The merge store is a real store on the merging agent's clock
		// (merge is the visibility point), charged, checked and fired as a
		// tstore of the merged value.
		wrote := r.buf.Store(m.Index, m.Value)
		rt.obs.write(r, m.Index, wrote, g)
		if wrote {
			changed++
			if addr := r.buf.Addr(m.Index); covers(sc.cands, addr) {
				sc.words = append(sc.words, addr)
			}
		}
	}
	sc.inline = rt.dispatchFired(sc.cands, sc.words, sc.inline, g, 0, nil)
	rt.stats.mergedUpdates.Add(int64(n))
	rt.stats.silentMerges.Add(int64(n - changed))
	rt.stats.merges.Add(1)
	rt.obs.merged(t0, n)
	u.mergeMu.Unlock()

	if changed > 0 {
		rt.afterWrite(sc.inline)
	}
	rt.putScratch(sc)
}

package core

import (
	"math"
	"sync/atomic"

	"dtt/internal/mem"
)

// Region is a trigger-capable array of words allocated from the runtime's
// address space. Ordinary loads and stores behave like memory accesses;
// TStore and TStoreF are the paper's triggering stores, and TStore's
// commutative cousin TUpdate (update.go) folds declared-commutative ops
// into a privatized delta plane that triggers on merge.
type Region struct {
	rt  *Runtime
	buf *mem.Buffer
	// upd is the region's privatized update plane, created lazily by the
	// first TUpdate and read lock-free on Load (one pointer load for
	// regions that never update). See update.go.
	upd atomic.Pointer[updatePlane]
}

// Name returns the region's allocation name.
func (r *Region) Name() string { return r.buf.Name() }

// Len returns the region size in words.
func (r *Region) Len() int { return r.buf.Len() }

// Buffer exposes the underlying memory buffer, for address arithmetic and
// validation.
func (r *Region) Buffer() *mem.Buffer { return r.buf }

// Load returns word i. With the protocol sanitizer on, the read is checked
// against the happens-before discipline (a read of a support thread's
// output requires an intervening Wait/Barrier); Peek bypasses the check
// for validation code.
//
// Load is a merge point for pending TUpdate deltas: when the region's
// privatized update plane has dirty cells the load first merges them (and
// fires the resulting triggers), so a reader never observes memory that a
// completed TUpdate on its own goroutine has not reached. The merge is
// best-effort under contention — if another merger holds the plane's
// merge lock the load proceeds with current memory; Wait and Barrier are
// the blocking merge points.
func (r *Region) Load(i int) mem.Word {
	if u := r.upd.Load(); u != nil && u.plane.Pending() > 0 {
		r.rt.mergePlane(u, false)
	}
	v := r.buf.Load(i)
	r.rt.obs.access(r, i, accLoad)
	return v
}

// LoadF returns word i as a float64.
func (r *Region) LoadF(i int) float64 { return math.Float64frombits(r.Load(i)) }

// Store writes v to word i without trigger semantics and reports whether
// the value changed. With the protocol sanitizer on, a changing store is
// checked and stamped; a silent one publishes nothing, so it creates no
// happens-before obligation. Poke bypasses the sanitizer for input-setup
// code.
func (r *Region) Store(i int, v mem.Word) bool {
	changed := r.buf.Store(i, v)
	if changed {
		r.rt.obs.access(r, i, accStore)
	}
	return changed
}

// StoreF writes f's bit pattern to word i without trigger semantics.
func (r *Region) StoreF(i int, f float64) bool { return r.Store(i, wordOf(f)) }

// TStore is a triggering store: it writes v to word i, and if the value
// changed it fires the threads attached to that address. It reports whether
// the value changed; a false return means the store was silent and all
// downstream computation was skipped.
//
// TStore is allocation-free in the steady state on every outcome — silent
// store, squashed duplicate, and plain enqueue. Silent stores and changing
// stores to addresses no thread is attached to never take any dispatch
// lock: the attachment check is a lock-free read of the registry's
// published interval index, so unrelated hot stores do not contend with
// dispatch. A firing store takes the dispatch lock once per store, however
// many attached threads it fires, for pointer-sized bookkeeping — or, on the
// immediate backend while every worker runs a body, appends its word to the
// runtime's stage, which enters the queue in one admission later (see
// DESIGN.md, "The stage").
// allocs_test.go and the BenchmarkTStore* families enforce this.
func (r *Region) TStore(i int, v mem.Word) bool { return r.rt.tstore(r, i, v) }

// TStoreBatch is the vectorized form of TStore: it writes vs to words
// [lo, lo+len(vs)) with word-at-a-time comparison and returns how many
// words changed. Each changing word fires the threads attached to its
// address, with duplicate squashing, as len(vs) scalar TStores would — but
// the dispatch cost is amortized: the batch resolves attachments against
// one registry snapshot and takes the dispatch lock once, enqueueing all of
// its fired entries under the single acquisition. Their order is store
// order only while they fit the thread queue: a batch that overflows it
// runs its overflowed words' instances inline after the whole span is
// stored, ahead of the queued head. Like TStore it is allocation-free in
// the steady state (the grouping scratch is pooled by the runtime), and on
// the seeded backend the whole batch is one preemption point where a
// scalar loop would be len(vs) of them.
func (r *Region) TStoreBatch(lo int, vs []mem.Word) int {
	return r.rt.tstoreBatch(r, lo, vs, nil)
}

// TStoreBatchJoin is TStoreBatch followed, when it is cheap, by Wait(t) on
// the caller. When t's backlog after the batch's admission fits one claim
// (WaitHelpMax entries), it makes Wait(t) itself — the merge point, then the
// join, which runs that backlog on the caller when t's run token is free —
// and reports quiet. A batch whose admission leaves nothing but t's entries
// in the ring, with t's token free, wakes no worker for them: the join runs
// them. A larger backlog wakes a worker and returns at once, not quiet, as
// TStoreBatch does. A batch that overflows the thread queue runs its
// instances out of store order, as TStoreBatch's do.
//
// quiet means t had no pending or running instance when the call returned.
// It stays true until something triggers t again; a caller that issues no
// store into t's ranges, and whose bodies issue none, can answer a Wait(t)
// from it. Must not be called from a support-thread body of t.
func (r *Region) TStoreBatchJoin(lo int, vs []mem.Word, t ThreadID) (changed int, quiet bool) {
	j := joiner{t: t}
	changed = r.rt.tstoreBatch(r, lo, vs, &j)
	if j.run {
		r.rt.Wait(t)
	}
	return changed, j.run
}

// TStoreF is the float64 form of TStore; change detection compares IEEE-754
// bit patterns, as hardware comparing raw memory would. It shares TStore's
// allocation-free fast path.
//
// Bit comparison is deliberately not float equality, matching what the
// paper's hardware — which compares the raw store data against memory —
// would do. The edge cases follow from that choice and are pinned by test:
//
//   - A NaN overwritten by a differently-payloaded NaN FIRES (the bits
//     differ), even though both compare unequal to everything as floats.
//   - A NaN overwritten by the identically-payloaded NaN is SILENT, even
//     though NaN != NaN as floats.
//   - +0.0 overwritten by -0.0 (and vice versa) FIRES: the values compare
//     equal as floats but their bit patterns differ in the sign bit.
//
// Numerically distinct values with equal bit patterns cannot exist, so
// bit comparison never misses a real change.
func (r *Region) TStoreF(i int, f float64) bool {
	return r.rt.tstore(r, i, wordOf(f))
}

// Peek returns word i without a memory event (validation/debugging).
func (r *Region) Peek(i int) mem.Word { return r.buf.Peek(i) }

// PeekF returns word i as a float64 without a memory event.
func (r *Region) PeekF(i int) float64 { return r.buf.PeekF(i) }

// Poke writes v without a memory event or trigger (input setup).
func (r *Region) Poke(i int, v mem.Word) { r.buf.Poke(i, v) }

// PokeF writes f without a memory event or trigger (input setup).
func (r *Region) PokeF(i int, f float64) { r.buf.PokeF(i, f) }

// Snapshot copies the region contents, for validation.
func (r *Region) Snapshot() []mem.Word { return r.buf.Snapshot() }

func wordOf(f float64) mem.Word { return mem.Word(math.Float64bits(f)) }

// Package queue implements the hardware structures the DTT paper adds to
// the processor: the thread registry (trigger address range -> thread), the
// fixed-capacity thread queue with duplicate squashing, and the states of
// the thread queue status table (TQST) that synchronisation instructions
// consult. The TQST itself is this package's ThreadQueue.PendingCount beside
// the run token of the runtime's per-thread record in internal/core.
//
// The thread queue carries no locking of its own: the runtime in
// internal/core instantiates one and serialises access under its
// dispatch lock, just as the hardware structure is
// accessed from a single pipeline. The registry is different: its read side
// (Snapshot and its lookups) is safe to call concurrently with other reads and
// with Attach/Detach, because every mutation publishes a fresh immutable
// index snapshot. That lets a triggering store reject unattached addresses
// without taking any lock at all.
package queue

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dtt/internal/mem"
)

// ThreadID names a registered data-triggered thread. IDs are dense small
// integers assigned by the runtime.
type ThreadID int

// Attachment associates a thread with a trigger address range.
type Attachment struct {
	Thread ThreadID
	Lo, Hi mem.Addr // half-open byte range [Lo, Hi)
}

// regIndex is an immutable lookup index over a set of attachments, sorted by
// Lo. lo/hi bound the union of all ranges so that the common case — a store
// far from any trigger range — is rejected with two comparisons.
type regIndex struct {
	atts   []Attachment
	lo, hi mem.Addr
}

// emptyIndex is the index of a registry with no attachments; lo >= hi makes
// every bounds pre-check fail.
var emptyIndex = &regIndex{}

// Registry maps trigger addresses to the threads attached to them. It
// corresponds to the paper's thread registry, filled by tspawn and drained
// by tcancel. Ranges may overlap: a store can trigger several threads.
//
// Mutations (Attach, Detach) must be serialised by the caller; reads may run
// concurrently with mutations and with each other.
type Registry struct {
	atts []Attachment
	idx  atomic.Pointer[regIndex]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.idx.Store(emptyIndex)
	return r
}

// rebuild publishes a fresh sorted index of the current attachments. Called
// after every mutation; Attach/Detach are management instructions (tspawn /
// tcancel), so the rebuild cost is off the store fast path by construction.
func (r *Registry) rebuild() {
	if len(r.atts) == 0 {
		r.idx.Store(emptyIndex)
		return
	}
	idx := &regIndex{atts: make([]Attachment, len(r.atts))}
	copy(idx.atts, r.atts)
	sort.Slice(idx.atts, func(i, j int) bool { return idx.atts[i].Lo < idx.atts[j].Lo })
	idx.lo = idx.atts[0].Lo
	for _, a := range idx.atts {
		if a.Hi > idx.hi {
			idx.hi = a.Hi
		}
	}
	r.idx.Store(idx)
}

// Attach records that thread t triggers on stores to [lo, hi). It returns an
// error for an empty or inverted range.
func (r *Registry) Attach(t ThreadID, lo, hi mem.Addr) error {
	if hi <= lo {
		return fmt.Errorf("queue: attach thread %d: empty trigger range [%#x, %#x)", t, lo, hi)
	}
	r.atts = append(r.atts, Attachment{Thread: t, Lo: lo, Hi: hi})
	r.rebuild()
	return nil
}

// Detach removes every attachment of thread t (tcancel) and returns how many
// were removed.
func (r *Registry) Detach(t ThreadID) int {
	kept := r.atts[:0]
	removed := 0
	for _, a := range r.atts {
		if a.Thread == t {
			removed++
			continue
		}
		kept = append(kept, a)
	}
	r.atts = kept
	if removed > 0 {
		r.rebuild()
	}
	return removed
}

// searchAtts returns how many attachments of atts (sorted by Lo) have
// Lo <= addr: every attachment that can cover addr sits in that prefix. It
// is sort.Search with the closure flattened out: the scalar store calls it
// once per changed word, where the indirect predicate call is measurable.
func searchAtts(atts []Attachment, addr mem.Addr) int {
	lo, hi := 0, len(atts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if atts[mid].Lo > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Snapshot is the registry's published index pinned at one instant. All
// lookups through one snapshot see the same attachment set, which is what
// a batched triggering store needs: every word of the batch resolves
// against identical state, so a concurrent Attach/Detach lands entirely
// before or entirely after the batch. A Snapshot is a value (no
// allocation) and stays valid indefinitely — the index it pins is
// immutable.
type Snapshot struct {
	idx *regIndex
}

// Snapshot pins the current published index.
func (r *Registry) Snapshot() Snapshot { return Snapshot{idx: r.idx.Load()} }

// Prefix returns the pinned index's attachments with Lo <= addr, in index
// order (sorted by range start): every attachment covering addr is among
// them, and the ones that do are those with addr < Hi. It takes no lock,
// copies nothing and calls nothing back, so the scalar triggering store walks
// its matches and goes straight to dispatch; a store far from every
// trigger range is rejected by two comparisons. The result is immutable.
func (s Snapshot) Prefix(addr mem.Addr) []Attachment {
	idx := s.idx
	if addr < idx.lo || addr >= idx.hi {
		return nil
	}
	return idx.atts[:searchAtts(idx.atts, addr)]
}

// Overlapping appends onto dst every attachment in the pinned index whose
// range intersects the span [lo, hi), in index order, and returns the
// extended slice. A batched triggering store resolves its contiguous span
// against the index once, then tests each changed word against the (almost
// always zero or one) candidate ranges — two comparisons per word instead
// of a search. Candidates appear in index order, so walking them per word
// yields matches in exactly the order Prefix would.
func (s Snapshot) Overlapping(lo, hi mem.Addr, dst []Attachment) []Attachment {
	idx := s.idx
	if hi <= idx.lo || lo >= idx.hi {
		return dst
	}
	// Attachments are sorted by Lo; everything with Lo < hi is a candidate.
	n := searchAtts(idx.atts, hi-1)
	for i := 0; i < n; i++ {
		if lo < idx.atts[i].Hi {
			dst = append(dst, idx.atts[i])
		}
	}
	return dst
}

// Attachments returns a copy of the current attachments.
func (r *Registry) Attachments() []Attachment {
	out := make([]Attachment, len(r.atts))
	copy(out, r.atts)
	return out
}

// Len returns the number of attachments.
func (r *Registry) Len() int { return len(r.atts) }

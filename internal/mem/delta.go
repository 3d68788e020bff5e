// Privatized replica storage for commutative triggering updates.
//
// A DeltaPlane shadows one Buffer with per-stripe private delta cells:
// producers fold commutative operations (add, min, max, and, or,
// set-last-wins) into their own stripe under a stripe-local lock, so hot
// counter-shaped regions stop serializing every producer through the
// buffer word and the dispatch lock. Nothing reaches the real Buffer —
// and so nothing can trigger a support thread — until a *merge* collects
// every stripe's pending phases and folds them, in one pass, onto the
// words they name. That generalizes the triggering store's dedup from
// "value unchanged" to "net effect unchanged": a +5 followed by a -5
// merges silently.
//
// The plane is storage and folding only. Merge policy (when), the store of
// each merged value, trigger dispatch (what fires) and visibility rules
// live in the runtime; the contract here is that exactly one merger at a
// time calls Collect (the runtime's per-plane merge lock enforces it)
// while producers keep applying concurrently.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// UpdateOp identifies a commutative update operation. The op set is fixed
// and closed: every op must commute with itself across producers (set is
// the documented exception — it is last-writer-wins and only
// order-deterministic within a single producer), so merges may fold
// per-stripe accumulations in any stripe order.
type UpdateOp uint8

const (
	// UpdAdd is wrapping 64-bit addition.
	UpdAdd UpdateOp = iota
	// UpdMin keeps the smaller value, comparing words as unsigned
	// integers (a Word is a raw bit pattern; callers using floats or
	// signed values must map them to an order-preserving unsigned key).
	UpdMin
	// UpdMax keeps the larger value, comparing as unsigned integers.
	UpdMax
	// UpdAnd is bitwise AND (set intersection on bit sets).
	UpdAnd
	// UpdOr is bitwise OR (set union on bit sets).
	UpdOr
	// UpdSet overwrites: last writer wins. The winner is deterministic
	// only among ops folded into the same stripe (merged in application
	// order); across stripes the merge's stripe-visit order decides. On a
	// single-stripe plane — every single-goroutine backend — that makes
	// one producer's last value exact; on a multi-stripe plane even one
	// producer's successive ops may land on different stripes (Hint is
	// affinity, not identity), so callers needing a deterministic winner
	// must separate conflicting sets with a merge point.
	UpdSet

	// NumUpdateOps bounds the valid op range.
	NumUpdateOps
)

// Valid reports whether op is one of the defined operations.
func (op UpdateOp) Valid() bool { return op < NumUpdateOps }

// String returns the op name.
func (op UpdateOp) String() string {
	switch op {
	case UpdAdd:
		return "add"
	case UpdMin:
		return "min"
	case UpdMax:
		return "max"
	case UpdAnd:
		return "and"
	case UpdOr:
		return "or"
	case UpdSet:
		return "set"
	}
	return fmt.Sprintf("UpdateOp(%d)", uint8(op))
}

// Combine folds operand b (the newer value) into accumulator a. The same
// function serves both producer-side folding (a = pending, b = operand)
// and the merge's fold (a = the word's value so far, b = a collected
// phase): for every op, folding then applying equals applying each
// operand in order.
func (op UpdateOp) Combine(a, b Word) Word {
	switch op {
	case UpdAdd:
		return a + b
	case UpdMin:
		if b < a {
			return b
		}
		return a
	case UpdMax:
		if b > a {
			return b
		}
		return a
	case UpdAnd:
		return a & b
	case UpdOr:
		return a | b
	default: // UpdSet
		return b
	}
}

// deltaCell is one word's pending accumulation in one stripe.
type deltaCell struct {
	val Word
	op  UpdateOp
	set bool
}

// stripePend is a displaced accumulation: when a producer switches ops on
// a cell mid-epoch (add then set, say), the old (op, val) moves here so
// the merge can fold the two phases in order.
type stripePend struct {
	val Word
	idx int32
	op  UpdateOp
}

// deltaStripe is one producer shard's private replica. cells and dirty are
// allocated lazily on first use, under the stripe lock, and retain their
// capacity across merges — the steady-state apply path allocates nothing.
type deltaStripe struct {
	mu    sync.Mutex
	cells []deltaCell //dtt:guards mu
	// dirty lists the set cells' indices in first-touch order; Collect
	// walks it instead of scanning cells.
	dirty []int32      //dtt:guards mu
	extra []stripePend //dtt:guards mu
	// ops counts updates applied through this stripe over its lifetime.
	ops int64
	// Pad stripes apart (to 128 bytes) so neighbouring producers' locks
	// and counters never share a cache line.
	_ [40]byte
}

// DeltaPlane is the striped privatized replica of one Buffer.
type DeltaPlane struct {
	buf     *Buffer
	smask   uint32
	stripes []deltaStripe

	// pending approximates the number of distinct dirty (stripe, word)
	// cells. It is the lock-free "anything to merge?" probe; it can
	// transiently lag a concurrent ApplyBatch, which is why Wait/Barrier
	// merge under a blocking lock.
	pending atomic.Int64

	// Merge scratch, touched only under the runtime's per-plane merge
	// lock. merged lists a Collect's words in first-meeting order with
	// their folded values; slot maps a word to its position in merged
	// plus one, zero when a Collect has not met it yet.
	merged []MergedWord
	slot   []int32
}

// MergedWord is one word a Collect folded: its index in the shadowed
// buffer and its value with every collected phase applied.
type MergedWord struct {
	Index int
	Value Word
}

// NewDeltaPlane returns a plane shadowing buf with stripes producer
// stripes (rounded up to a power of two, minimum 1). Cell storage is
// allocated per stripe on first touch, so idle stripes cost one padded
// header.
func NewDeltaPlane(buf *Buffer, stripes int) *DeltaPlane {
	n := 1
	for n < stripes {
		n <<= 1
	}
	return &DeltaPlane{buf: buf, smask: uint32(n - 1), stripes: make([]deltaStripe, n)}
}

// StripeCount returns the number of producer stripes.
func (p *DeltaPlane) StripeCount() int { return len(p.stripes) }

// Pending returns the approximate count of dirty cells awaiting merge.
func (p *DeltaPlane) Pending() int64 { return p.pending.Load() }

// Hint returns a goroutine-affine stripe index. It hashes the address of
// a stack local: distinct goroutines run on distinct stacks, so
// concurrent producers land on mostly-distinct stripes without any
// per-goroutine registration. The pointer is consumed immediately as an
// integer — it never escapes and the hint costs no allocation.
//
// The hint is an affinity, not an identity: the local's address varies
// with stack depth (different call sites) and moves when the stack grows,
// so one goroutine's successive ops can land on different stripes. That
// only spreads contention — every commutative op merges to the same net
// effect regardless of stripe — but it means per-producer fold order is
// NOT preserved across stripes; see UpdSet and Collect. (A goroutine-
// stable key would need a goid lookup per op, which costs a stack read —
// orders of magnitude more than the whole fold.)
func (p *DeltaPlane) Hint() uint32 {
	var x byte
	h := uint64(uintptr(unsafe.Pointer(&x))) >> 10
	return uint32((h*0x9E3779B97F4A7C15)>>33) & p.smask
}

// ApplyBatch folds vs[j] into words lo+j of stripe s (masked into range)
// under one stripe lock, amortizing the lock and the counter maintenance
// across the span. A scalar update is a one-word span.
//
// The op dispatch is hoisted out of the per-word loop. In both loops the
// warm path (cell already accumulating under the same op) is one combine
// on the private cell, and cold cells (first touch, op switch) fall back
// to the generic apply. UpdAdd, the op counter-shaped batches fold, gets
// its own loop whose warm path is a plain add; every other op combines
// through UpdateOp.Combine.
func (p *DeltaPlane) ApplyBatch(s uint32, lo int, op UpdateOp, vs []Word) {
	st := &p.stripes[s&p.smask]
	st.mu.Lock()
	if st.cells == nil {
		st.cells = make([]deltaCell, p.buf.Len()) //dtt:escape-ok -- first-touch stripe allocation; steady state re-uses it
	}
	cells := st.cells[lo : lo+len(vs)]
	newly := 0
	switch op {
	case UpdAdd:
		for j, v := range vs {
			if c := &cells[j]; c.set && c.op == UpdAdd {
				c.val += v
			} else if st.apply(lo+j, op, v) {
				newly++
			}
		}
	default:
		for j, v := range vs {
			if c := &cells[j]; c.set && c.op == op {
				c.val = op.Combine(c.val, v)
			} else if st.apply(lo+j, op, v) {
				newly++
			}
		}
	}
	st.ops += int64(len(vs))
	st.mu.Unlock()
	if newly != 0 {
		p.pending.Add(int64(newly))
	}
}

// apply folds one op into one cell; the stripe lock is held.
func (st *deltaStripe) apply(i int, op UpdateOp, v Word) (newly bool) {
	c := &st.cells[i]
	switch {
	case !c.set:
		c.set = true
		c.op = op
		c.val = v
		st.dirty = append(st.dirty, int32(i))
		return true
	case c.op == op:
		c.val = op.Combine(c.val, v)
	default:
		// Op switch mid-epoch: displace the finished phase, in order,
		// and restart accumulation under the new op.
		st.extra = append(st.extra, stripePend{idx: int32(i), op: c.op, val: c.val})
		c.op = op
		c.val = v
	}
	return false
}

// Collect drains every stripe's pending phases and folds each straight
// onto its word, returning the folded words, valid until the next Collect.
// The caller must hold the plane's merge lock. The first time Collect meets
// a word it reads the word's value with LoadQuiet — reading the base is
// part of applying a store, not a workload load, so it reaches no probe —
// and every phase then applies op.Combine once. Stripes are visited in
// index order and, per word, each stripe's displaced phases precede its
// live cell — so ops that landed on one stripe fold in their application
// order. Ops of one producer that landed on different stripes (possible on
// multi-stripe planes: Hint is affinity, not identity) fold in stripe
// order instead; that changes nothing for the commutative ops, and is why
// UpdSet's last-wins determinism is only per-stripe. A single-stripe plane
// — every single-goroutine backend — folds each producer's full sequence
// exactly.
func (p *DeltaPlane) Collect() []MergedWord {
	if p.slot == nil {
		p.slot = make([]int32, p.buf.Len()) //dtt:escape-ok -- first-merge scratch allocation; later merges re-use it
	}
	p.merged = p.merged[:0]
	var collected int64
	for s := range p.stripes {
		st := &p.stripes[s]
		st.mu.Lock()
		for _, e := range st.extra {
			p.fold(e.idx, e.op, e.val)
		}
		st.extra = st.extra[:0]
		for _, i := range st.dirty {
			c := &st.cells[i]
			p.fold(i, c.op, c.val)
			c.set = false
		}
		collected += int64(len(st.dirty))
		st.dirty = st.dirty[:0]
		st.mu.Unlock()
	}
	for _, m := range p.merged {
		p.slot[m.Index] = 0
	}
	if collected != 0 {
		p.pending.Add(-collected)
	}
	return p.merged
}

// fold applies one collected phase to word i's merged value.
func (p *DeltaPlane) fold(i int32, op UpdateOp, v Word) {
	if k := p.slot[i]; k != 0 {
		m := &p.merged[k-1]
		m.Value = op.Combine(m.Value, v)
		return
	}
	p.merged = append(p.merged, MergedWord{Index: int(i), Value: op.Combine(p.buf.LoadQuiet(int(i)), v)})
	p.slot[i] = int32(len(p.merged))
}

// Discard drains every stripe's pending deltas without collecting them:
// the release path calls it when the shadowed region is freed, so a plane
// that outlives its region through a stale snapshot reads as having
// nothing to merge. Lifetime op counts (Ops) are unaffected. Safe against
// concurrent ApplyBatch; the caller serializes it against mergers the same
// way it serializes Collect.
func (p *DeltaPlane) Discard() {
	var dropped int64
	for s := range p.stripes {
		st := &p.stripes[s]
		st.mu.Lock()
		st.extra = st.extra[:0]
		for _, i := range st.dirty {
			st.cells[i].set = false
			dropped++
		}
		st.dirty = st.dirty[:0]
		st.mu.Unlock()
	}
	if dropped != 0 {
		p.pending.Add(-dropped)
	}
}

// Ops returns the lifetime count of updates applied to the plane, summed
// across stripes under their locks. This is the TUpdates stat: counting
// here keeps the apply fast path free of any cross-stripe shared write.
func (p *DeltaPlane) Ops() int64 {
	var t int64
	for s := range p.stripes {
		st := &p.stripes[s]
		st.mu.Lock()
		t += st.ops
		st.mu.Unlock()
	}
	return t
}

// Package mem provides the simulated memory substrate that the data-triggered
// threads runtime, the profilers and the timing simulator all share.
//
// Workloads do not operate on raw Go pointers: fine-grained memory triggers
// are awkward to bolt onto arbitrary Go values, so every piece of program
// state that can carry a trigger lives in a Buffer allocated from a System.
// A Buffer is a word-granular array with a stable logical base address, so
// the cache model and the redundancy profiler see a realistic address stream
// while the workload code stays ordinary Go.
//
// A Buffer has one of two sharing classes, fixed when it is allocated.
// A shared buffer (AllocShared; every core.Region is one) holds trigger
// data: a thread can be attached to its words, so a support thread may read
// a word while the main thread rewrites it, and its stores are atomic. A
// private buffer (Alloc) holds everything else — a kernel's inputs and the
// outputs its bodies compute. One goroutine at a time owns it, ownership
// moves only across the runtime's synchronising edges (enqueue to claim,
// settle to Wait/Barrier), and its stores are plain stores, as a support
// thread's are in the paper.
package mem

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Word is the machine word manipulated by all workloads. Floating-point data
// is stored as its IEEE-754 bit pattern; triggering stores compare bit
// patterns, exactly as a hardware tstore compares raw memory contents.
type Word = uint64

// Addr is a logical byte address in the simulated address space.
type Addr uint64

const (
	// WordBytes is the size of one Word in the simulated address space.
	WordBytes = 8
	// LineBytes is the cache line size; allocations are line-aligned so
	// that distinct buffers never produce false line sharing.
	LineBytes = 64
)

// Probe observes the memory and compute activity of an instrumented run.
// Implementations include the cache hierarchy, the load-redundancy profiler
// and the task recorder. All methods are invoked synchronously on the
// goroutine performing the access.
type Probe interface {
	// OnLoad is called after a word load returns val from addr.
	OnLoad(addr Addr, val Word)
	// OnStore is called after a word store. silent reports whether the
	// store wrote the value that was already there.
	OnStore(addr Addr, old, val Word, silent bool)
	// OnCompute accounts n abstract ALU operations of surrounding
	// computation; it exists so timing models can charge non-memory work.
	OnCompute(n int64)
}

// NopProbe is a Probe that ignores everything. It is the zero-cost default
// and a convenient embedding base for probes that care about a subset of
// events.
type NopProbe struct{}

func (NopProbe) OnLoad(Addr, Word)              {}
func (NopProbe) OnStore(Addr, Word, Word, bool) {}
func (NopProbe) OnCompute(int64)                {}

// System is a simulated address space. It hands out line-aligned Buffers and
// fans memory events out to attached probes. Allocation and probe attachment
// are not safe for concurrent use (core.Runtime serialises them); word access
// is, to the extent the buffer's sharing class says.
type System struct {
	next   Addr
	bufs   []*Buffer
	probes []Probe
	// probe is the single active probe fan-out target when exactly one
	// probe is attached; it lets the hot path skip slice iteration.
	probe Probe
	// probed is len(probes) != 0, kept as a flag so Compute tests one byte
	// and inlines; every Buffer carries a copy for Load and Store. setProbed
	// is the only writer of either.
	probed bool
	// free holds address ranges returned by Free, sorted by base and
	// coalesced, so namespace churn (allocate, close, allocate again)
	// reuses the arena instead of growing it without bound.
	free []freeSpan
}

// freeSpan is a reclaimed, line-aligned address range [base, base+bytes).
type freeSpan struct {
	base  Addr
	bytes Addr
}

// NewSystem returns an empty address space. The first allocation starts at a
// non-zero base so that address zero never aliases real data.
func NewSystem() *System {
	return &System{next: Addr(LineBytes)}
}

// AttachProbe registers p to observe all subsequent memory traffic.
// Probes are invoked in attachment order.
func (s *System) AttachProbe(p Probe) {
	if p == nil {
		return
	}
	s.probes = append(s.probes, p)
	if len(s.probes) == 1 {
		s.probe = p
	} else {
		s.probe = nil
	}
	s.setProbed(true)
}

// DetachProbes removes all probes.
func (s *System) DetachProbes() {
	s.probes = nil
	s.probe = nil
	s.setProbed(false)
}

// setProbed writes the system's probed flag and every live buffer's copy of
// it. The flags are plain bools: probes attach and detach only while no
// support thread runs.
func (s *System) setProbed(on bool) {
	s.probed = on
	for _, b := range s.bufs {
		b.probed = on
	}
}

// Alloc reserves a private Buffer of n words named name: no two goroutines
// touch it without a synchronising edge between them, so its stores are plain
// stores. The buffer is zero-filled and line-aligned. Freed ranges (see Free)
// are reused first-fit before the arena grows. Alloc panics if n is negative.
func (s *System) Alloc(name string, n int) *Buffer { return s.alloc(name, n, false) }

// AllocShared is Alloc for a buffer whose words may be read while they are
// rewritten — trigger data. Its stores are atomic swaps.
func (s *System) AllocShared(name string, n int) *Buffer { return s.alloc(name, n, true) }

func (s *System) alloc(name string, n int, shared bool) *Buffer {
	if n < 0 {
		panic(fmt.Sprintf("mem: Alloc %q with negative size %d", name, n))
	}
	bytes := Addr(n) * WordBytes
	// Round up to whole lines; zero-word buffers still own one line so
	// every buffer has a distinct base.
	need := (bytes + LineBytes - 1) / LineBytes * LineBytes
	if need == 0 {
		need = LineBytes
	}
	b := &Buffer{name: name, data: make([]Word, n), sys: s, probed: s.probed, shared: shared}
	if i := s.fit(need); i >= 0 {
		// Carve the front of the free span; an exact fit removes it.
		fs := &s.free[i]
		b.base = fs.base
		fs.base += need
		fs.bytes -= need
		if fs.bytes == 0 {
			s.free = append(s.free[:i], s.free[i+1:]...)
		}
	} else {
		b.base = s.next
		s.next += need
	}
	// Keep bufs sorted by base — BufferAt binary-searches it, and reused
	// bases land below the bump frontier.
	i := sort.Search(len(s.bufs), func(i int) bool { return s.bufs[i].base > b.base })
	s.bufs = append(s.bufs, nil)
	copy(s.bufs[i+1:], s.bufs[i:])
	s.bufs[i] = b
	return b
}

// fit returns the index of the first free span of at least need bytes, or
// -1 when the bump frontier must grow.
func (s *System) fit(need Addr) int {
	for i := range s.free {
		if s.free[i].bytes >= need {
			return i
		}
	}
	return -1
}

// Free returns b's address range to the allocator. The caller must ensure
// no further accesses through b occur: the range may be handed to a later
// Alloc, whose Buffer has fresh zeroed backing. Freeing a buffer the system
// does not own (or freeing twice) panics. Adjacent free spans coalesce, so
// steady namespace churn reaches a fixed footprint.
func (s *System) Free(b *Buffer) {
	i := sort.Search(len(s.bufs), func(i int) bool { return s.bufs[i].base >= b.base })
	if i >= len(s.bufs) || s.bufs[i] != b {
		panic(fmt.Sprintf("mem: Free of unowned or already-freed buffer %q", b.name))
	}
	s.bufs = append(s.bufs[:i], s.bufs[i+1:]...)
	bytes := Addr(len(b.data)) * WordBytes
	need := (bytes + LineBytes - 1) / LineBytes * LineBytes
	if need == 0 {
		need = LineBytes
	}
	// Insert sorted by base, then coalesce with both neighbours.
	j := sort.Search(len(s.free), func(j int) bool { return s.free[j].base > b.base })
	s.free = append(s.free, freeSpan{})
	copy(s.free[j+1:], s.free[j:])
	s.free[j] = freeSpan{base: b.base, bytes: need}
	if j+1 < len(s.free) && s.free[j].base+s.free[j].bytes == s.free[j+1].base {
		s.free[j].bytes += s.free[j+1].bytes
		s.free = append(s.free[:j+1], s.free[j+2:]...)
	}
	if j > 0 && s.free[j-1].base+s.free[j-1].bytes == s.free[j].base {
		s.free[j-1].bytes += s.free[j].bytes
		s.free = append(s.free[:j], s.free[j+1:]...)
	}
}

// FreeBytes returns the total bytes currently sitting on the free list —
// reclaimed by Free and not yet reused. Footprint minus FreeBytes is the
// live footprint.
func (s *System) FreeBytes() int64 {
	var t Addr
	for _, fs := range s.free {
		t += fs.bytes
	}
	return int64(t)
}

// Footprint returns the total number of bytes allocated, including
// line-alignment padding.
func (s *System) Footprint() int64 { return int64(s.next - LineBytes) }

// BufferAt returns the buffer containing addr, or nil if addr is unmapped.
func (s *System) BufferAt(addr Addr) *Buffer {
	i := sort.Search(len(s.bufs), func(i int) bool { return s.bufs[i].base > addr })
	if i == 0 {
		return nil
	}
	b := s.bufs[i-1]
	if addr < b.base+Addr(len(b.data))*WordBytes {
		return b
	}
	return nil
}

// Compute accounts n abstract ALU operations against attached probes.
// Workloads call this (via their workload context) to describe non-memory
// work so the timing model can charge it. With no probe attached it is a
// flag test at the call site.
func (s *System) Compute(n int64) {
	if s.probed {
		s.computeProbed(n)
	}
}

// computeProbed is Compute's fan-out, outlined like loadProbed so Compute
// inlines into the kernels' innermost loops.
//
//go:noinline
func (s *System) computeProbed(n int64) {
	if s.probe != nil {
		s.probe.OnCompute(n)
		return
	}
	for _, p := range s.probes {
		p.OnCompute(n)
	}
}

func (s *System) onLoad(addr Addr, v Word) {
	if s.probe != nil {
		s.probe.OnLoad(addr, v)
		return
	}
	for _, p := range s.probes {
		p.OnLoad(addr, v)
	}
}

func (s *System) onStore(addr Addr, old, v Word, silent bool) {
	if s.probe != nil {
		s.probe.OnStore(addr, old, v, silent)
		return
	}
	for _, p := range s.probes {
		p.OnStore(addr, old, v, silent)
	}
}

// Buffer is a word-granular array with a stable logical base address.
type Buffer struct {
	name string
	base Addr
	data []Word
	sys  *System
	// probed mirrors sys.probed. Load and Store test it instead of chasing
	// the sys pointer so both fit the compiler's inlining budget;
	// System.setProbed keeps it in step on probe attach/detach.
	probed bool
	// shared is the sharing class, set by the allocator and never flipped:
	// true when a word can be read while it is rewritten (AllocShared),
	// false when accesses from different goroutines are always ordered by a
	// hand-off (Alloc). Only swap reads it.
	shared bool
}

// Name returns the allocation name.
func (b *Buffer) Name() string { return b.name }

// Base returns the logical byte address of word 0.
func (b *Buffer) Base() Addr { return b.base }

// Len returns the number of words in the buffer.
func (b *Buffer) Len() int { return len(b.data) }

// Shared reports the buffer's sharing class: true for AllocShared, whose
// stores are atomic, false for Alloc, whose stores are plain.
func (b *Buffer) Shared() bool { return b.shared }

// Addr returns the logical byte address of word i.
func (b *Buffer) Addr(i int) Addr { return b.base + Addr(i)*WordBytes }

// Index returns the word index of addr within b. It panics if addr is not
// word-aligned inside b.
func (b *Buffer) Index(addr Addr) int {
	off := addr - b.base
	i := int(off / WordBytes)
	if off%WordBytes != 0 || i < 0 || i >= len(b.data) {
		panic(fmt.Sprintf("mem: address %#x not a word of buffer %q", addr, b.name))
	}
	return i
}

// Load returns word i, notifying probes. The load is atomic in both sharing
// classes — a plain MOV on amd64 — so that a support thread may read trigger
// data (a shared buffer) the main thread is concurrently rewriting, the
// overlap the DTT execution model is built on, without a Go-level data race.
// On a private buffer the atomicity buys nothing and promises nothing: a Load
// that is not ordered after the last Store by a hand-off races with it.
func (b *Buffer) Load(i int) Word {
	v := atomic.LoadUint64(&b.data[i])
	if b.probed {
		b.loadProbed(i, v)
	}
	return v
}

// loadProbed is Load's probe notification, outlined so Load itself stays
// within the inlining budget — the unprobed fast path is then a single
// atomic load at every call site.
//
//go:noinline
func (b *Buffer) loadProbed(i int, v Word) { b.sys.onLoad(b.Addr(i), v) }

// Peek returns word i without generating a memory event. It exists for
// validation and debugging; workloads must use Load.
func (b *Buffer) Peek(i int) Word { return b.data[i] } //dtt:ignore atomics -- quiescent-only debug read; callers hold no concurrent writers by contract

// LoadQuiet returns word i atomically without notifying probes. Merge-time
// folding of privatized deltas reads the base value with it: the read is
// part of applying a store, not a workload load, so it must not appear in
// redundancy profiles or charge the cache model.
func (b *Buffer) LoadQuiet(i int) Word { return atomic.LoadUint64(&b.data[i]) }

// Store writes v to word i, notifying probes. It returns true if the stored
// value differs from the previous contents (i.e. the store was not silent).
// On a shared buffer the word update is atomic, like Load; on a private one
// it is a plain store (see swap). Unprobed, a silent store is a load: when
// the word already reads v nothing is written — the store linearises at that
// load — so the line stays shared with the support threads reading it
// instead of being taken exclusive to rewrite what it holds.
func (b *Buffer) Store(i int, v Word) bool {
	if b.probed || atomic.LoadUint64(&b.data[i]) != v {
		return b.swap(i, v)
	}
	return false
}

// swap is the store that writes: every probed store (probes see silent
// stores too) and every unprobed one whose word did not already read v.
// On a shared buffer it is an atomic swap and reports what the swap
// displaced, so of two racing stores of one new value exactly one changes the
// word. On a private buffer it reads and writes the word plainly: nobody can
// be reading it, so there is nothing for a locked XCHG to order, and a body's
// results become visible at the join as a support thread's do in the paper.
// The shared arm is tested first; a triggering store pays one predicted
// branch for the class. Outlined for the same reason as loadProbed: with it
// out of line Store inlines, and a silent triggering store is one atomic load
// and a predicted branch at the call site, no call.
//
//go:noinline
func (b *Buffer) swap(i int, v Word) bool {
	var old Word
	if b.shared {
		old = atomic.SwapUint64(&b.data[i], v)
	} else {
		//dtt:ignore atomics -- private class: one goroutine owns the buffer between hand-offs (enqueue to claim under the dispatch mutex, settle to Wait/Barrier), so the join orders this plain read and write
		old, b.data[i] = b.data[i], v
	}
	if b.probed {
		b.sys.onStore(b.Addr(i), old, v, old == v)
	}
	return old != v
}

// Poke writes v to word i without generating a memory event. It exists for
// input-setup code that should not pollute profiles.
func (b *Buffer) Poke(i int, v Word) { b.data[i] = v } //dtt:ignore atomics -- input setup runs before threads attach; no concurrent readers by contract

// LoadF and StoreF are float64 views of Load and Store.

// LoadF returns word i interpreted as a float64.
func (b *Buffer) LoadF(i int) float64 { return math.Float64frombits(b.Load(i)) }

// StoreF stores the bit pattern of f to word i and reports whether the bit
// pattern changed.
func (b *Buffer) StoreF(i int, f float64) bool { return b.Store(i, math.Float64bits(f)) }

// PeekF returns word i as a float64 without a memory event.
func (b *Buffer) PeekF(i int) float64 { return math.Float64frombits(b.data[i]) } //dtt:ignore atomics -- quiescent-only debug read, float view of Peek

// PokeF writes f's bit pattern without a memory event.
func (b *Buffer) PokeF(i int, f float64) { b.data[i] = math.Float64bits(f) } //dtt:ignore atomics -- event-free setup write, float view of Poke

// Snapshot copies the buffer contents, for validation.
func (b *Buffer) Snapshot() []Word {
	out := make([]Word, len(b.data))
	copy(out, b.data)
	return out
}

package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndBase(t *testing.T) {
	s := NewSystem()
	a := s.Alloc("a", 3)
	b := s.Alloc("b", 1)
	if a.Base() == 0 {
		t.Fatalf("first buffer base is 0; address zero must stay unmapped")
	}
	if a.Base()%LineBytes != 0 || b.Base()%LineBytes != 0 {
		t.Fatalf("buffers not line-aligned: %#x %#x", a.Base(), b.Base())
	}
	if b.Base() < a.Addr(a.Len()) {
		t.Fatalf("buffers overlap: a ends %#x, b starts %#x", a.Addr(a.Len()), b.Base())
	}
}

func TestAllocZeroAndNegative(t *testing.T) {
	s := NewSystem()
	z := s.Alloc("zero", 0)
	n := s.Alloc("next", 4)
	if z.Len() != 0 {
		t.Fatalf("zero-size buffer has len %d", z.Len())
	}
	if n.Base() <= z.Base() {
		t.Fatalf("zero-size buffer must still advance the allocator")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Alloc with negative size did not panic")
		}
	}()
	s.Alloc("bad", -1)
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("buf", 8)
	for i := 0; i < b.Len(); i++ {
		if got := b.Load(i); got != 0 {
			t.Fatalf("word %d not zero-initialised: %d", i, got)
		}
	}
	if changed := b.Store(3, 42); !changed {
		t.Fatalf("store of new value reported silent")
	}
	if changed := b.Store(3, 42); changed {
		t.Fatalf("store of same value reported changed")
	}
	if got := b.Load(3); got != 42 {
		t.Fatalf("Load(3) = %d, want 42", got)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("f", 4)
	vals := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	for _, v := range vals {
		b.StoreF(0, v)
		if got := b.LoadF(0); got != v {
			t.Fatalf("float round trip: stored %v, loaded %v", v, got)
		}
	}
	// -0.0 and +0.0 have different bit patterns: a tstore must see a change.
	b.StoreF(1, 0.0)
	if changed := b.StoreF(1, math.Copysign(0, -1)); !changed {
		t.Fatalf("storing -0 over +0 must be a value change at the bit level")
	}
}

type recordingProbe struct {
	NopProbe
	loads, stores, silent int
	compute               int64
	lastAddr              Addr
}

func (p *recordingProbe) OnLoad(addr Addr, _ Word) { p.loads++; p.lastAddr = addr }
func (p *recordingProbe) OnStore(addr Addr, _, _ Word, silent bool) {
	p.stores++
	p.lastAddr = addr
	if silent {
		p.silent++
	}
}
func (p *recordingProbe) OnCompute(n int64) { p.compute += n }

func TestProbeSeesTraffic(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("buf", 4)
	p := &recordingProbe{}
	s.AttachProbe(p)
	b.Store(0, 7)
	b.Store(0, 7)
	b.Load(0)
	s.Compute(11)
	if p.loads != 1 || p.stores != 2 || p.silent != 1 || p.compute != 11 {
		t.Fatalf("probe saw loads=%d stores=%d silent=%d compute=%d", p.loads, p.stores, p.silent, p.compute)
	}
	if p.lastAddr != b.Addr(0) {
		t.Fatalf("probe saw addr %#x, want %#x", p.lastAddr, b.Addr(0))
	}
}

func TestMultipleProbesAllNotified(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("buf", 1)
	p1, p2 := &recordingProbe{}, &recordingProbe{}
	s.AttachProbe(p1)
	s.AttachProbe(p2)
	b.Store(0, 1)
	b.Load(0)
	if p1.stores != 1 || p2.stores != 1 || p1.loads != 1 || p2.loads != 1 {
		t.Fatalf("fan-out failed: p1=%+v p2=%+v", p1, p2)
	}
	s.DetachProbes()
	b.Load(0)
	if p1.loads != 1 {
		t.Fatalf("probe still notified after detach")
	}
}

// seamEvent is one probe callback as seamProbe logs it; probe is the
// attach-order index of the probe that received it.
type seamEvent struct {
	probe    int
	kind     string
	addr     Addr
	old, val Word
	silent   bool
	n        int64
}

// seamProbe appends every callback to a log shared by all probes of one
// System, so the order across probes is observable.
type seamProbe struct {
	id  int
	log *[]seamEvent
}

func (p seamProbe) OnLoad(addr Addr, val Word) {
	*p.log = append(*p.log, seamEvent{probe: p.id, kind: "load", addr: addr, val: val})
}
func (p seamProbe) OnStore(addr Addr, old, val Word, silent bool) {
	*p.log = append(*p.log, seamEvent{probe: p.id, kind: "store", addr: addr, old: old, val: val, silent: silent})
}
func (p seamProbe) OnCompute(n int64) {
	*p.log = append(*p.log, seamEvent{probe: p.id, kind: "compute", n: n})
}

// TestProbeSeam pins the probe seam's contract across its three accessors:
// with 0, 1 or 2 probes attached, every Load, Store and Compute reaches each
// attached probe exactly once, in attach order, with the same arguments —
// through a buffer allocated before the attach and one allocated after — and
// none of them reaches a probe after DetachProbes. System.probed and every
// Buffer.probed agree at each step, including on a buffer allocated after
// the detach.
func TestProbeSeam(t *testing.T) {
	for _, probes := range []int{0, 1, 2} {
		s := NewSystem()
		var log []seamEvent
		bufs := []*Buffer{s.Alloc("before", 2)}
		flags := func(step string, want bool) {
			t.Helper()
			if s.probed != want {
				t.Fatalf("%d probes, %s: System.probed = %v, want %v", probes, step, s.probed, want)
			}
			for _, b := range bufs {
				if b.probed != want {
					t.Fatalf("%d probes, %s: buffer %q probed = %v, want %v", probes, step, b.Name(), b.probed, want)
				}
			}
		}
		// expect runs op and requires exactly the events want, once per
		// attached probe and in attach order (none when live is 0).
		expect := func(step string, live int, want seamEvent, op func()) {
			t.Helper()
			log = log[:0]
			op()
			if len(log) != live {
				t.Fatalf("%d probes, %s: %d events %+v, want %d", probes, step, len(log), log, live)
			}
			for i, got := range log {
				want.probe = i
				if got != want {
					t.Fatalf("%d probes, %s: event %d = %+v, want %+v", probes, step, i, got, want)
				}
			}
		}
		traffic := func(step string, live int) {
			t.Helper()
			for _, b := range bufs {
				b.Poke(1, 5)
				expect(step+" load "+b.Name(), live, seamEvent{kind: "load", addr: b.Addr(1), val: 5}, func() { b.Load(1) })
				expect(step+" store "+b.Name(), live, seamEvent{kind: "store", addr: b.Addr(1), old: 5, val: 9}, func() {
					if !b.Store(1, 9) {
						t.Fatalf("%d probes, %s: changing store reported silent", probes, step)
					}
				})
				expect(step+" silent store "+b.Name(), live, seamEvent{kind: "store", addr: b.Addr(1), old: 9, val: 9, silent: true}, func() {
					if b.Store(1, 9) {
						t.Fatalf("%d probes, %s: silent store reported a change", probes, step)
					}
				})
			}
			expect(step+" compute", live, seamEvent{kind: "compute", n: 17}, func() { s.Compute(17) })
		}

		flags("fresh", false)
		traffic("fresh", 0)
		for i := 0; i < probes; i++ {
			s.AttachProbe(seamProbe{id: i, log: &log})
			flags("attached", true)
		}
		s.AttachProbe(nil) // ignored: attaches nothing, flips nothing
		bufs = append(bufs, s.Alloc("after", 2))
		flags("attached+alloc", probes > 0)
		traffic("attached", probes)

		s.DetachProbes()
		bufs = append(bufs, s.Alloc("post", 2))
		flags("detached", false)
		traffic("detached", 0)
	}
}

func TestPeekPokeDoNotProbe(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("buf", 2)
	p := &recordingProbe{}
	s.AttachProbe(p)
	b.Poke(0, 9)
	if b.Peek(0) != 9 {
		t.Fatalf("Peek after Poke: got %d", b.Peek(0))
	}
	b.PokeF(1, 2.5)
	if b.PeekF(1) != 2.5 {
		t.Fatalf("PeekF after PokeF: got %v", b.PeekF(1))
	}
	if p.loads+p.stores != 0 {
		t.Fatalf("Peek/Poke generated memory events: %+v", p)
	}
}

func TestBufferAt(t *testing.T) {
	s := NewSystem()
	a := s.Alloc("a", 4)
	b := s.Alloc("b", 4)
	if got := s.BufferAt(a.Addr(2)); got != a {
		t.Fatalf("BufferAt(a[2]) = %v", got)
	}
	if got := s.BufferAt(b.Addr(0)); got != b {
		t.Fatalf("BufferAt(b[0]) = %v", got)
	}
	if got := s.BufferAt(0); got != nil {
		t.Fatalf("BufferAt(0) = %v, want nil", got)
	}
	if got := s.BufferAt(b.Addr(b.Len()-1) + WordBytes*100); got != nil {
		t.Fatalf("BufferAt far past end = %v, want nil", got)
	}
}

func TestBufferIndexInverseOfAddr(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("b", 16)
	for i := 0; i < b.Len(); i++ {
		if got := b.Index(b.Addr(i)); got != i {
			t.Fatalf("Index(Addr(%d)) = %d", i, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Index of misaligned address did not panic")
		}
	}()
	b.Index(b.Addr(0) + 1)
}

func TestAddrIndexProperty(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("b", 1024)
	f := func(i uint16) bool {
		idx := int(i) % b.Len()
		return b.Index(b.Addr(idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLoadValueProperty(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("b", 64)
	f := func(i uint8, v Word) bool {
		idx := int(i) % b.Len()
		b.Store(idx, v)
		return b.Load(idx) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewSystem()
	b := s.Alloc("b", 4)
	b.Store(0, 5)
	snap := b.Snapshot()
	b.Store(0, 6)
	if snap[0] != 5 {
		t.Fatalf("snapshot aliased live data")
	}
}

func TestFootprintGrows(t *testing.T) {
	s := NewSystem()
	before := s.Footprint()
	s.Alloc("x", 100)
	if s.Footprint() <= before {
		t.Fatalf("footprint did not grow: %d -> %d", before, s.Footprint())
	}
	if s.Footprint()%LineBytes != 0 {
		t.Fatalf("footprint %d not line-granular", s.Footprint())
	}
}

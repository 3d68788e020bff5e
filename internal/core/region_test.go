package core

import (
	"math"
	"testing"

	"dtt/internal/mem"
)

func TestRegionAccessors(t *testing.T) {
	rt := newDeferred(t, nil)
	r := rt.NewRegion("acc", 8)
	if r.Name() != "acc" || r.Len() != 8 || r.Buffer() == nil {
		t.Fatalf("basic accessors wrong: %q %d", r.Name(), r.Len())
	}

	r.Poke(0, 5)
	if r.Peek(0) != 5 || r.Load(0) != 5 {
		t.Fatalf("Poke/Peek/Load round trip failed")
	}
	if changed := r.Store(0, 5); changed {
		t.Fatalf("silent plain store reported changed")
	}

	r.PokeF(1, 2.5)
	if r.PeekF(1) != 2.5 || r.LoadF(1) != 2.5 {
		t.Fatalf("float poke/peek/load round trip failed")
	}
	if changed := r.StoreF(1, 3.25); !changed || r.LoadF(1) != 3.25 {
		t.Fatalf("StoreF failed: %v", r.LoadF(1))
	}

	snap := r.Snapshot()
	r.Store(0, 99)
	if snap[0] != 5 {
		t.Fatalf("Snapshot aliases live data")
	}
}

// TestTStoreBatchPanics checks the batched store's argument contract: a
// batch reaching outside the region stores nothing, and a batch stores
// exactly the words it is handed, however much capacity their slice has.
func TestTStoreBatchPanics(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 8)
	backing := []mem.Word{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"batch past the end", func() { data.TStoreBatch(6, backing[:3]) }},
		{"batch negative lo", func() { data.TStoreBatch(-1, backing[:2]) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
	for i, v := range data.Snapshot() {
		if v != 0 {
			t.Errorf("a rejected batch stored word %d = %d", i, v)
		}
	}
	data.TStoreBatch(8, nil)         // empty batch is a no-op wherever it points
	data.TStoreBatch(2, backing[:2]) // the slice's spare capacity is not stored
	if got := data.Snapshot(); got[2] != 1 || got[3] != 2 || got[4] != 0 {
		t.Errorf("TStoreBatch(2, backing[:2]) stored %v, want words 2..3 = 1, 2 only", got)
	}
}

// TestRegionBuffersAreShared pins the one line that decides which words
// keep atomic stores: a thread can be attached to a region's words, so
// Runtime.NewRegion and Namespace.Region allocate shared buffers, while a
// kernel's own System.Alloc — its outputs — stays private.
func TestRegionBuffersAreShared(t *testing.T) {
	rt := newDeferred(t, nil)
	if !rt.NewRegion("region", 4).Buffer().Shared() {
		t.Fatalf("Runtime.NewRegion returned a private buffer")
	}
	r, err := rt.NewNamespace("tenant").Region("words", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Buffer().Shared() {
		t.Fatalf("Namespace.Region returned a private buffer")
	}
	if rt.System().Alloc("output", 4).Shared() {
		t.Fatalf("a runtime's System.Alloc returned a shared buffer")
	}
}

func TestRegionTStoreFBitPattern(t *testing.T) {
	rt := newDeferred(t, nil)
	r := rt.NewRegion("f", 2)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, r, 0, 2)

	if changed := r.TStoreF(0, 1.5); !changed {
		t.Fatalf("first TStoreF not a change")
	}
	if changed := r.TStoreF(0, 1.5); changed {
		t.Fatalf("identical float TStoreF not silent")
	}
	// NaN bit patterns: the same NaN pattern is silent, as hardware
	// comparing raw memory would behave.
	nan := math.NaN()
	r.TStoreF(1, nan)
	if changed := r.TStoreF(1, nan); changed {
		t.Fatalf("identical NaN pattern treated as a change")
	}
	rt.Barrier()
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

// TestTStoreFBitPatternEdges pins the documented change-detection policy of
// TStoreF: raw bit comparison, exactly as hardware comparing store data
// against memory. The interesting rows are the ones where bit equality and
// float equality disagree.
func TestTStoreFBitPatternEdges(t *testing.T) {
	nanA := math.NaN()                                           // canonical quiet NaN
	nanB := math.Float64frombits(math.Float64bits(nanA) ^ 0b101) // different payload
	cases := []struct {
		name     string
		old, new float64
		fires    bool
	}{
		{"same value same bits", 1.5, 1.5, false},
		{"distinct values", 1.5, 2.5, true},
		{"identical NaN payload", nanA, nanA, false},
		{"different NaN payload", nanA, nanB, true},
		{"pos zero over neg zero", math.Copysign(0, -1), 0, true},
		{"neg zero over pos zero", 0, math.Copysign(0, -1), true},
		{"pos zero over pos zero", 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newDeferred(t, nil)
			r := rt.NewRegion("f", 1)
			fired := 0
			id := rt.Register("watch", func(Trigger) { fired++ })
			rt.Attach(id, r, 0, 1)
			r.PokeF(0, tc.old)
			changed := r.TStoreF(0, tc.new)
			rt.Barrier()
			if changed != tc.fires || fired != btoi(tc.fires) {
				t.Fatalf("TStoreF(%v over %v): changed=%v fired=%d, want fires=%v",
					tc.new, tc.old, changed, fired, tc.fires)
			}
			if got, want := r.Peek(0), wordOf(tc.new); got != want {
				t.Fatalf("memory holds %#x, want the stored bit pattern %#x", got, want)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestRuntimeConfigAccessor(t *testing.T) {
	rt := newDeferred(t, func(c *Config) { c.QueueCapacity = 7 })
	if rt.Config().QueueCapacity != 7 {
		t.Fatalf("Config() = %+v", rt.Config())
	}
	if rt.Config().Backend != BackendDeferred {
		t.Fatalf("backend = %v", rt.Config().Backend)
	}
}

func TestBackendStringUnknown(t *testing.T) {
	if Backend(9).String() != "Backend(9)" {
		t.Fatalf("unknown backend formatting: %v", Backend(9))
	}
}

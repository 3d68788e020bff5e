package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestUpdateOpCombine(t *testing.T) {
	cases := []struct {
		op      UpdateOp
		a, b, w Word
	}{
		{UpdAdd, 3, 4, 7},
		{UpdAdd, ^Word(0), 1, 0}, // wrapping
		{UpdMin, 3, 4, 3},
		{UpdMin, ^Word(0), 4, 4}, // unsigned compare
		{UpdMax, 3, 4, 4},
		{UpdMax, ^Word(0), 4, ^Word(0)},
		{UpdAnd, 0b1100, 0b1010, 0b1000},
		{UpdOr, 0b1100, 0b1010, 0b1110},
		{UpdSet, 3, 4, 4}, // b is newer
	}
	for _, c := range cases {
		if got := c.op.Combine(c.a, c.b); got != c.w {
			t.Errorf("%v.Combine(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
}

func TestUpdateOpValidAndString(t *testing.T) {
	for op := UpdateOp(0); op < NumUpdateOps; op++ {
		if !op.Valid() {
			t.Errorf("op %d should be valid", op)
		}
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if UpdateOp(NumUpdateOps).Valid() || UpdateOp(255).Valid() {
		t.Error("out-of-range ops report valid")
	}
}

// newPlane returns a plane of the given stripes over a fresh buffer of
// words zero words.
func newPlane(words, stripes int) (*DeltaPlane, *Buffer) {
	buf := NewSystem().Alloc("plane", words)
	return NewDeltaPlane(buf, stripes), buf
}

// apply folds one scalar op through a one-word ApplyBatch, as
// Region.TUpdate does.
func apply(p *DeltaPlane, s uint32, i int, op UpdateOp, v Word) {
	p.ApplyBatch(s, i, op, []Word{v})
}

// collect runs a Collect and returns its merged values by word index.
func collect(p *DeltaPlane) map[int]Word {
	got := make(map[int]Word)
	for _, m := range p.Collect() {
		got[m.Index] = m.Value
	}
	return got
}

// TestDeltaPlaneFoldAndMerge exercises the single-stripe fold/collect
// cycle: same-op applies fold in place and Collect folds each word onto
// its buffer value, reproducing the sequential result.
func TestDeltaPlaneFoldAndMerge(t *testing.T) {
	p, buf := newPlane(8, 1)
	if p.StripeCount() != 1 {
		t.Fatalf("plane has %d stripes", p.StripeCount())
	}
	buf.Poke(5, 200)
	apply(p, 0, 2, UpdAdd, 5)
	apply(p, 0, 2, UpdAdd, 7)
	apply(p, 0, 5, UpdMax, 100)
	if got := p.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 distinct dirty words", got)
	}
	got := collect(p)
	if len(got) != 2 {
		t.Fatalf("Collect = %d words, want 2", len(got))
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending after Collect = %d", p.Pending())
	}
	if got[2] != 12 {
		t.Errorf("word 2 merged to %d, want 12", got[2])
	}
	if got[5] != 200 {
		t.Errorf("word 5 merged to %d, want max(200, 100) = 200", got[5])
	}
	if p.Ops() != 3 {
		t.Errorf("Ops = %d, want 3", p.Ops())
	}
}

// TestDeltaPlaneMixedOpsOrder checks the displacement path: when a word
// sees different ops between merges, the merge must apply them in the
// stripe's application order (set then add != add then set).
func TestDeltaPlaneMixedOpsOrder(t *testing.T) {
	p, buf := newPlane(4, 1)
	buf.Poke(1, 999)
	apply(p, 0, 1, UpdSet, 10)
	apply(p, 0, 1, UpdAdd, 3)
	apply(p, 0, 1, UpdAdd, 4)
	apply(p, 0, 1, UpdSet, 50)
	apply(p, 0, 1, UpdAdd, 1)
	got := collect(p)
	if len(got) != 1 {
		t.Fatalf("Collect = %d words, want 1", len(got))
	}
	// Sequentially: set 10, +3, +4, set 50, +1 = 51 regardless of base.
	if v := got[1]; v != 51 {
		t.Fatalf("mixed-op merge = %d, want 51", v)
	}
}

// TestDeltaPlaneBatch covers ApplyBatch's span path and the reuse of
// cells across merge cycles (no repeated lazy allocation).
func TestDeltaPlaneBatch(t *testing.T) {
	p, buf := newPlane(16, 2)
	if p.ApplyBatch(0, 4, UpdAdd, []Word{1, 2, 3}); p.Ops() != 3 || p.Pending() != 3 {
		t.Fatalf("ApplyBatch: Ops = %d Pending = %d, want 3 ops and 3 newly dirty cells", p.Ops(), p.Pending())
	}
	if p.ApplyBatch(0, 4, UpdAdd, []Word{10, 10, 10}); p.Ops() != 6 || p.Pending() != 3 {
		t.Fatalf("re-fold: Ops = %d Pending = %d, want 6 ops and no newly dirty cell", p.Ops(), p.Pending())
	}
	got := collect(p)
	if len(got) != 3 {
		t.Fatalf("Collect = %d words, want 3", len(got))
	}
	want := map[int]Word{4: 11, 5: 12, 6: 13}
	for i, v := range got {
		if v != want[i] {
			t.Errorf("word %d merged to %d, want %d", i, v, want[i])
		}
		buf.Poke(i, v)
	}
	// Second cycle on the same words reuses the retained capacity.
	p.ApplyBatch(1, 4, UpdOr, []Word{8, 8, 8})
	got = collect(p)
	if len(got) != 3 {
		t.Fatalf("second Collect = %d words, want 3", len(got))
	}
	for i, v := range got {
		if v != want[i]|8 {
			t.Errorf("word %d second merge = %d, want %d", i, v, want[i]|8)
		}
	}
}

// TestDeltaPlaneConcurrentStripes hammers a multi-stripe plane from many
// goroutines folding adds, then checks the merged sums against the exact
// totals — commutativity means interleaving cannot change the answer.
func TestDeltaPlaneConcurrentStripes(t *testing.T) {
	const (
		words     = 32
		producers = 8
		opsEach   = 2000
	)
	p, _ := newPlane(words, 4)
	want := make([]Word, words)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			local := make([]Word, words)
			s := p.Hint()
			for k := 0; k < opsEach; k++ {
				i := rng.Intn(words)
				v := Word(rng.Intn(1000))
				apply(p, s, i, UpdAdd, v)
				local[i] += v
			}
			mu.Lock()
			for i := range local {
				want[i] += local[i]
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	got := collect(p)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
	if p.Ops() != producers*opsEach {
		t.Errorf("Ops = %d, want %d", p.Ops(), producers*opsEach)
	}
}

// TestDeltaPlaneFoldOrderReference pins the merge's fold order on
// multi-stripe planes. Seeded ApplyBatch calls over all six ops, on
// explicitly chosen stripes and with op switches on dirty cells, must merge
// word by word to a plain replay: each stripe's ops on the word in
// application order, stripes in index order, folded onto the word's value.
func TestDeltaPlaneFoldOrderReference(t *testing.T) {
	const words, calls, cycles = 24, 200, 4
	type phase struct {
		op UpdateOp
		v  Word
	}
	for _, stripes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("stripes%d", stripes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(stripes)))
			buf := NewSystem().Alloc("ref", words)
			for i := 0; i < words; i++ {
				buf.Poke(i, Word(rng.Intn(1<<10)))
			}
			p := NewDeltaPlane(buf, stripes)
			for cycle := 0; cycle < cycles; cycle++ {
				// applied[s][i] lists stripe s's ops on word i in order.
				applied := make([][][]phase, stripes)
				for s := range applied {
					applied[s] = make([][]phase, words)
				}
				for c := 0; c < calls; c++ {
					s := rng.Intn(stripes)
					lo := rng.Intn(words)
					vs := make([]Word, 1+rng.Intn(min(4, words-lo)))
					op := UpdateOp(rng.Intn(int(NumUpdateOps)))
					for j := range vs {
						vs[j] = Word(rng.Intn(1 << 10))
						applied[s][lo+j] = append(applied[s][lo+j], phase{op, vs[j]})
					}
					p.ApplyBatch(uint32(s), lo, op, vs)
				}
				switches := 0
				for s := range p.stripes {
					switches += len(p.stripes[s].extra)
				}
				if switches == 0 {
					t.Fatalf("cycle %d switched no dirty cell's op", cycle)
				}
				want := make(map[int]Word)
				for i := 0; i < words; i++ {
					v, touched := buf.Peek(i), false
					for s := range applied {
						for _, ph := range applied[s][i] {
							v, touched = ph.op.Combine(v, ph.v), true
						}
					}
					if touched {
						want[i] = v
					}
				}
				got := collect(p)
				if len(got) != len(want) {
					t.Fatalf("cycle %d: merged %d words, want %d", cycle, len(got), len(want))
				}
				for i, v := range want {
					if g, ok := got[i]; !ok || g != v {
						t.Errorf("cycle %d: word %d merged to %d (present %v), replay gives %d", cycle, i, g, ok, v)
					}
					buf.Poke(i, v)
				}
			}
		})
	}
}

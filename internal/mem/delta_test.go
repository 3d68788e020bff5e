package mem

import (
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

// TestDeltaPlaneFoldAndMerge exercises the single-stripe fold/collect/merge
// cycle: same-op applies fold in place, Collect drains in per-word order,
// MergeWord reproduces the sequential result.
func TestDeltaPlaneFoldAndMerge(t *testing.T) {
	p := NewDeltaPlane(8, 1)
	if p.Words() != 8 || p.StripeCount() != 1 {
		t.Fatalf("plane geometry = (%d words, %d stripes)", p.Words(), p.StripeCount())
	}
	p.Apply(0, 2, UpdAdd, 5)
	p.Apply(0, 2, UpdAdd, 7)
	p.Apply(0, 5, UpdMax, 100)
	if got := p.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 distinct dirty words", got)
	}
	n := p.Collect()
	if n != 2 {
		t.Fatalf("Collect = %d, want 2", n)
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending after Collect = %d", p.Pending())
	}
	got := map[int]Word{}
	for k := 0; k < n; k++ {
		i := p.MergeIndex(k)
		base := Word(0)
		if i == 5 {
			base = 200
		}
		j, v := p.MergeWord(k, base)
		if j != i {
			t.Fatalf("MergeWord index %d != MergeIndex %d", j, i)
		}
		got[j] = v
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
	p := NewDeltaPlane(4, 1)
	p.Apply(0, 1, UpdSet, 10)
	p.Apply(0, 1, UpdAdd, 3)
	p.Apply(0, 1, UpdAdd, 4)
	p.Apply(0, 1, UpdSet, 50)
	p.Apply(0, 1, UpdAdd, 1)
	n := p.Collect()
	if n != 1 {
		t.Fatalf("Collect = %d, want 1", n)
	}
	_, v := p.MergeWord(0, 999)
	// Sequentially: set 10, +3, +4, set 50, +1 = 51 regardless of base.
	if v != 51 {
		t.Fatalf("mixed-op merge = %d, want 51", v)
	}
}

// TestDeltaPlaneBatch covers ApplyBatch's span path and the reuse of
// cells across merge cycles (no repeated lazy allocation).
func TestDeltaPlaneBatch(t *testing.T) {
	p := NewDeltaPlane(16, 2)
	if p.ApplyBatch(0, 4, UpdAdd, []Word{1, 2, 3}); p.Ops() != 3 || p.Pending() != 3 {
		t.Fatalf("ApplyBatch: Ops = %d Pending = %d, want 3 ops and 3 newly dirty cells", p.Ops(), p.Pending())
	}
	if p.ApplyBatch(0, 4, UpdAdd, []Word{10, 10, 10}); p.Ops() != 6 || p.Pending() != 3 {
		t.Fatalf("re-fold: Ops = %d Pending = %d, want 6 ops and no newly dirty cell", p.Ops(), p.Pending())
	}
	n := p.Collect()
	if n != 3 {
		t.Fatalf("Collect = %d, want 3", n)
	}
	want := map[int]Word{4: 11, 5: 12, 6: 13}
	for k := 0; k < n; k++ {
		i, v := p.MergeWord(k, 0)
		if v != want[i] {
			t.Errorf("word %d merged to %d, want %d", i, v, want[i])
		}
	}
	// Second cycle on the same words reuses the retained capacity.
	p.ApplyBatch(1, 4, UpdOr, []Word{8, 8, 8})
	if n := p.Collect(); n != 3 {
		t.Fatalf("second Collect = %d, want 3", n)
	}
	for k := 0; k < 3; k++ {
		i, v := p.MergeWord(k, want[p.MergeIndex(k)])
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
	p := NewDeltaPlane(words, 4)
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
				p.Apply(s, i, UpdAdd, v)
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
	got := make([]Word, words)
	n := p.Collect()
	for k := 0; k < n; k++ {
		i, v := p.MergeWord(k, 0)
		got[i] = v
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
	if p.Ops() != producers*opsEach {
		t.Errorf("Ops = %d, want %d", p.Ops(), producers*opsEach)
	}
}

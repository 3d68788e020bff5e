package workloads

import (
	"fmt"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// equakeWorkload models 183.equake's sparse matrix-vector product (smvp).
//
// equake's time loop multiplies a fixed stiffness matrix by a displacement
// vector every step, but between steps only the entries under the seismic
// wavefront change — the program rewrites the whole vector and recomputes
// every product anyway. The DTT transform stores displacements through
// triggering stores; a support thread recomputes only the products of a
// changed column and folds the delta into the row sums.
type equakeWorkload struct{}

func init() { register(equakeWorkload{}) }

func (equakeWorkload) Name() string  { return "equake" }
func (equakeWorkload) Suite() string { return "SPEC CPU2000 fp (183.equake)" }
func (equakeWorkload) Description() string {
	return "sparse matrix-vector product: recompute products only for displacement entries the wavefront changed"
}

// equake problem dimensions. Values are fixed-point integers so the
// incremental and full recomputations agree exactly.
const (
	equakeNBase    = 768
	equakeColNNZ   = 12
	equakeWaveFrac = 2 // wavefront covers n/equakeWaveFrac entries
	equakeMulCost  = 2 // ALU ops per product
	equakeSumCost  = 1 // ALU ops per row-sum accumulation
)

type equakeMatrix struct {
	n int
	// Column-major sparse structure: colRow[j] lists the rows with a
	// non-zero in column j; colVal the corresponding coefficients;
	// colK[j] the index of column j's first product slot.
	colRow [][]int
	colVal [][]int64
	colK   []int
	nnz    int
}

func buildEquakeMatrix(size Size) *equakeMatrix {
	size = size.withDefaults()
	n := equakeNBase * size.Scale
	rng := NewRNG(size.Seed ^ 0xe9)
	m := &equakeMatrix{n: n, colRow: make([][]int, n), colVal: make([][]int64, n), colK: make([]int, n)}
	k := 0
	for j := 0; j < n; j++ {
		m.colK[j] = k
		seen := map[int]bool{}
		for c := 0; c < equakeColNNZ; c++ {
			r := rng.Intn(n)
			for seen[r] {
				r = rng.Intn(n)
			}
			seen[r] = true
			m.colRow[j] = append(m.colRow[j], r)
			m.colVal[j] = append(m.colVal[j], int64(rng.Intn(9)+1))
			k++
		}
	}
	m.nnz = k
	return m
}

// equakeDisp returns the displacement value of entry j at a time step:
// a base profile plus a wavefront term that is non-zero only inside the
// moving window.
func equakeDisp(m *equakeMatrix, base []int64, step, j int) int64 {
	width := m.n / equakeWaveFrac
	lo := (step * 17) % m.n
	d := base[j]
	off := j - lo
	if off < 0 {
		off += m.n
	}
	if off < width {
		d += int64((step+1)*(off%7) + off%3)
	}
	return d
}

type equakeState struct {
	sys  *mem.System
	m    *equakeMatrix
	disp *mem.Buffer
	prod *mem.Buffer
	out  *mem.Buffer
	base []int64
}

// rebuildColumn recomputes the products of column j from the current
// displacement and folds the deltas into the row sums. It is the support
// thread's body and also the building block of the full rebuild.
func (st *equakeState) rebuildColumn(j int) {
	d := signed(st.disp.Load(j))
	k := st.m.colK[j]
	for c, r := range st.m.colRow[j] {
		old := signed(st.prod.Load(k + c))
		nw := st.m.colVal[j][c] * d
		st.sys.Compute(equakeMulCost)
		if nw != old {
			st.prod.Store(k+c, word(nw))
			st.out.Store(r, word(signed(st.out.Load(r))+nw-old))
			st.sys.Compute(equakeSumCost)
		}
	}
}

// consume folds the step's row sums into the running checksum: the part of
// the program that uses the smvp result, identical in both variants.
func (st *equakeState) consume(sum uint64) uint64 {
	var total int64
	for i := 0; i < st.m.n; i++ {
		total += signed(st.out.Load(i))
		st.sys.Compute(1)
	}
	return checksum(sum, uint64(total))
}

func newEquakeState(sys *mem.System, size Size, alloc func(string, int) *mem.Buffer) *equakeState {
	m := buildEquakeMatrix(size)
	st := &equakeState{
		sys:  sys,
		m:    m,
		disp: alloc("equake.disp", m.n),
		prod: alloc("equake.prod", m.nnz),
		out:  alloc("equake.out", m.n),
		base: make([]int64, m.n),
	}
	rng := NewRNG(size.Seed ^ 0x7a7a)
	for j := 0; j < m.n; j++ {
		st.base[j] = int64(rng.Intn(100))
		st.disp.Poke(j, word(equakeDisp(m, st.base, 0, j)))
	}
	// Initial full build of products and row sums (prod/out start zero).
	for j := 0; j < m.n; j++ {
		st.rebuildColumn(j)
	}
	return st
}

func (equakeWorkload) RunBaseline(env *Env, size Size) (Result, error) {
	size = size.withDefaults()
	st := newEquakeState(env.Sys, size, env.Sys.Alloc)
	sum := uint64(0)
	for step := 1; step <= size.Iters; step++ {
		// Write the whole displacement vector, as equake does...
		for j := 0; j < st.m.n; j++ {
			st.disp.Store(j, word(equakeDisp(st.m, st.base, step, j)))
			st.sys.Compute(2)
		}
		// ...and recompute every product, changed or not.
		for j := 0; j < st.m.n; j++ {
			st.rebuildColumn(j)
		}
		sum = st.consume(sum)
	}
	return Result{Checksum: sum}, nil
}

func (equakeWorkload) RunDTT(env *Env, size Size) (Result, error) {
	if env.RT == nil {
		return Result{}, fmt.Errorf("equake: DTT run without a runtime")
	}
	size = size.withDefaults()
	rt := env.RT
	// Allocate disp as a region and the rest as plain buffers, preserving
	// the baseline's allocation order so addresses line up.
	var dispRegion *core.Region
	st := newEquakeState(env.Sys, size, func(name string, n int) *mem.Buffer {
		if name == "equake.disp" {
			dispRegion = rt.NewRegion(name, n)
			return dispRegion.Buffer()
		}
		return env.Sys.Alloc(name, n)
	})

	smvp := rt.Register("equake.smvp", func(tg core.Trigger) {
		st.rebuildColumn(tg.Index)
	})
	if err := rt.Attach(smvp, dispRegion, 0, st.m.n); err != nil {
		return Result{}, err
	}

	sum := uint64(0)
	// One reusable span for the whole-vector write: the batched triggering
	// store performs the same word-at-a-time comparison as the scalar loop
	// (same silent/changed decisions, same per-word tstore accounting) but
	// amortizes snapshotting and dispatch locking over the vector.
	span := make([]mem.Word, st.m.n)
	for step := 1; step <= size.Iters; step++ {
		// Same whole-vector write; the triggering store detects that most
		// entries did not change and fires nothing for them.
		for j := 0; j < st.m.n; j++ {
			span[j] = word(equakeDisp(st.m, st.base, step, j))
			st.sys.Compute(2)
		}
		dispRegion.TStoreBatch(0, span)
		rt.Wait(smvp)
		sum = st.consume(sum)
	}
	rt.Barrier()
	return Result{Checksum: sum, Triggers: st.m.n}, nil
}

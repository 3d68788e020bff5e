package workloads

import (
	"fmt"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// ammpWorkload models 188.ammp's non-bonded force evaluation.
//
// ammp recomputes pairwise interactions over its neighbour list every time
// step, but atoms move slowly: on the grid resolution that matters for the
// potential, most atoms stand still between steps. The kernel stores
// quantised atom positions through triggering stores; a support thread
// re-evaluates only the pairs incident to atoms whose quantised position
// changed.
type ammpWorkload struct{}

func init() { register(ammpWorkload{}) }

func (ammpWorkload) Name() string  { return "ammp" }
func (ammpWorkload) Suite() string { return "SPEC CPU2000 fp (188.ammp)" }
func (ammpWorkload) Description() string {
	return "pairwise forces: re-evaluate only pairs whose atom's quantised position moved"
}

// ammp dimensions.
const (
	ammpAtomsBase = 384
	ammpDegree    = 12 // neighbours per atom
	ammpPairCost  = 6  // ALU ops per pair evaluation
	ammpGrid      = 1 << 14
	ammpMoveFrac  = 2 // 1/frac of the atoms move per step
)

type ammpTopology struct {
	atoms     int
	pairA     []int
	pairB     []int
	atomPairs [][]int
}

func buildAmmpTopology(size Size) *ammpTopology {
	size = size.withDefaults()
	tp := &ammpTopology{atoms: ammpAtomsBase * size.Scale}
	tp.atomPairs = make([][]int, tp.atoms)
	rng := NewRNG(size.Seed ^ 0x4dd)
	for a := 0; a < tp.atoms; a++ {
		for d := 0; d < ammpDegree/2; d++ {
			b := rng.Intn(tp.atoms - 1)
			if b >= a {
				b++
			}
			p := len(tp.pairA)
			tp.pairA = append(tp.pairA, a)
			tp.pairB = append(tp.pairB, b)
			tp.atomPairs[a] = append(tp.atomPairs[a], p)
			tp.atomPairs[b] = append(tp.atomPairs[b], p)
		}
	}
	return tp
}

type ammpState struct {
	sys   *mem.System
	tp    *ammpTopology
	pos   *mem.Buffer // quantised packed positions
	pairE *mem.Buffer // per-pair interaction energy
	total *mem.Buffer // [0] = total energy
}

// pairEnergy evaluates the interaction of pair p from current positions:
// an integer inverse-square-flavoured potential.
func (st *ammpState) pairEnergy(p int) int64 {
	xa, ya := unpackXY(st.pos.Load(st.tp.pairA[p]))
	xb, yb := unpackXY(st.pos.Load(st.tp.pairB[p]))
	dx, dy := int64(xa-xb), int64(ya-yb)
	d2 := dx*dx + dy*dy + 1
	st.sys.Compute(ammpPairCost)
	return (1 << 30) / d2
}

// refreshPair re-evaluates pair p and folds the delta into the total.
func (st *ammpState) refreshPair(p int) {
	old := signed(st.pairE.Load(p))
	nw := st.pairEnergy(p)
	if nw != old {
		st.pairE.Store(p, word(nw))
		st.total.Store(0, word(signed(st.total.Load(0))+nw-old))
		st.sys.Compute(1)
	}
}

// stepPosition returns atom a's quantised position at a step. Most atoms
// return their previous position: ammp's slow motion on the grid.
func ammpStepPosition(tp *ammpTopology, st *ammpState, step, a int) mem.Word {
	h := uint64(step)*0x9e3779b97f4a7c15 + uint64(a)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	if h%ammpMoveFrac != 0 {
		return st.pos.Load(a) // unmoved: the store will be silent
	}
	x, y := unpackXY(st.pos.Load(a))
	x = (x + int(h>>40)%17 - 8 + ammpGrid) % ammpGrid
	y = (y + int(h>>52)%17 - 8 + ammpGrid) % ammpGrid
	return packXY(x, y)
}

func newAmmpState(sys *mem.System, size Size, alloc func(string, int) *mem.Buffer) *ammpState {
	tp := buildAmmpTopology(size)
	st := &ammpState{
		sys:   sys,
		tp:    tp,
		pos:   alloc("ammp.pos", tp.atoms),
		pairE: alloc("ammp.pairE", len(tp.pairA)),
		total: alloc("ammp.total", 1),
	}
	rng := NewRNG(size.Seed ^ 0x661)
	for a := 0; a < tp.atoms; a++ {
		st.pos.Poke(a, packXY(rng.Intn(ammpGrid), rng.Intn(ammpGrid)))
	}
	var total int64
	for p := range tp.pairA {
		e := st.pairEnergy(p)
		st.pairE.Poke(p, word(e))
		total += e
	}
	st.total.Poke(0, word(total))
	return st
}

func (ammpWorkload) RunBaseline(env *Env, size Size) (Result, error) {
	size = size.withDefaults()
	st := newAmmpState(env.Sys, size, env.Sys.Alloc)
	sum := uint64(0)
	for step := 0; step < size.Iters; step++ {
		for a := 0; a < st.tp.atoms; a++ {
			st.pos.Store(a, ammpStepPosition(st.tp, st, step, a))
		}
		// Re-evaluate every pair, moved or not.
		for p := range st.tp.pairA {
			st.refreshPair(p)
		}
		sum = checksum(sum, uint64(st.total.Load(0)))
	}
	return Result{Checksum: sum}, nil
}

func (ammpWorkload) RunDTT(env *Env, size Size) (Result, error) {
	if env.RT == nil {
		return Result{}, fmt.Errorf("ammp: DTT run without a runtime")
	}
	size = size.withDefaults()
	rt := env.RT
	var posRegion *core.Region
	st := newAmmpState(env.Sys, size, func(name string, n int) *mem.Buffer {
		if name == "ammp.pos" {
			posRegion = rt.NewRegion(name, n)
			return posRegion.Buffer()
		}
		return env.Sys.Alloc(name, n)
	})

	forces := rt.Register("ammp.forces", func(tg core.Trigger) {
		for _, p := range st.tp.atomPairs[tg.Index] {
			st.refreshPair(p)
		}
	})
	if err := rt.Attach(forces, posRegion, 0, st.tp.atoms); err != nil {
		return Result{}, err
	}

	sum := uint64(0)
	for step := 0; step < size.Iters; step++ {
		for a := 0; a < st.tp.atoms; a++ {
			posRegion.TStore(a, ammpStepPosition(st.tp, st, step, a))
		}
		rt.Wait(forces)
		sum = checksum(sum, uint64(st.total.Load(0)))
	}
	rt.Barrier()
	return Result{Checksum: sum, Triggers: st.tp.atoms}, nil
}

package workloads

import (
	"fmt"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// bzip2Workload models 256.bzip2.
//
// Like gzip, SPEC runs bzip2 over the same input repeatedly; the dominant
// cost is the per-block Burrows-Wheeler-style sort. The kernel streams
// blocks round after round with a high mutation rate (bzip2's inputs reuse
// less across rounds than gzip's, so its DTT gain is smaller); a support
// thread redoes the block transform only when the block's signature word
// changes.
type bzip2Workload struct{}

func init() { register(bzip2Workload{}) }

func (bzip2Workload) Name() string  { return "bzip2" }
func (bzip2Workload) Suite() string { return "SPEC CPU2000 int (256.bzip2)" }
func (bzip2Workload) Description() string {
	return "block transform: redo the BWT-style sort only for blocks whose signature changed"
}

// bzip2 dimensions.
const (
	bzip2BlocksBase = 32
	bzip2BlockWords = 64
	bzip2Buckets    = 16
	bzip2RankCost   = 4 // ALU ops per ranking step
	bzip2MutateFrac = 4 // (frac-1)/frac of the blocks mutate per round: high churn
)

type bzip2State struct {
	sys    *mem.System
	seed   uint64
	blocks int
	data   *mem.Buffer
	sig    *mem.Buffer
	rank   *mem.Buffer // per-block transform fingerprint
	total  *mem.Buffer
}

func (st *bzip2State) writeRound(round, b int) {
	h := uint64(b)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9
	h ^= h >> 33
	mutated := h%bzip2MutateFrac != 0
	base := b * bzip2BlockWords
	for i := 0; i < bzip2BlockWords; i++ {
		v := uint64(b)*2654435761 + uint64(i)*40503 + st.seed*0x85ebca6b
		if mutated {
			v ^= uint64(round) * 65599 * uint64(1+i%3)
		}
		st.data.Store(base+i, v%bzip2Buckets)
		st.sys.Compute(1)
	}
}

func (st *bzip2State) signature(b int) mem.Word {
	base := b * bzip2BlockWords
	h := uint64(0x9dc5)
	for i := 0; i < bzip2BlockWords; i++ {
		h = (h ^ uint64(st.data.Load(base+i))) * 0x100000001b3
		st.sys.Compute(1)
	}
	return mem.Word(h)
}

// transform models the block sort: a counting sort into buckets followed by
// a rank scan, producing a fingerprint of the sorted order.
func (st *bzip2State) transform(b int) {
	base := b * bzip2BlockWords
	var hist [bzip2Buckets]int64
	for i := 0; i < bzip2BlockWords; i++ {
		hist[st.data.Load(base+i)%bzip2Buckets]++
		st.sys.Compute(2)
	}
	// Prefix sums give each symbol its sorted position...
	var start [bzip2Buckets]int64
	var acc int64
	for s := 0; s < bzip2Buckets; s++ {
		start[s] = acc
		acc += hist[s]
		st.sys.Compute(1)
	}
	// ...and the rank scan walks positions in sorted order, as the BWT's
	// suffix ranking does, mixing them into a fingerprint.
	var fp int64
	for i := 0; i < bzip2BlockWords; i++ {
		sym := st.data.Load(base+i) % bzip2Buckets
		pos := start[sym]
		start[sym]++
		fp = fp*31 + pos*int64(sym+1) + int64(i%7)
		st.sys.Compute(bzip2RankCost)
	}
	old := signed(st.rank.Load(b))
	if fp != old {
		st.rank.Store(b, word(fp))
		st.total.Store(0, word(signed(st.total.Load(0))+fp-old))
	}
}

func newBzip2State(sys *mem.System, size Size, alloc func(string, int) *mem.Buffer) *bzip2State {
	size = size.withDefaults()
	st := &bzip2State{sys: sys, seed: size.Seed, blocks: bzip2BlocksBase * size.Scale}
	st.data = alloc("bzip2.data", st.blocks*bzip2BlockWords)
	st.sig = alloc("bzip2.sig", st.blocks)
	st.rank = alloc("bzip2.rank", st.blocks)
	st.total = alloc("bzip2.total", 1)
	return st
}

func (bzip2Workload) RunBaseline(env *Env, size Size) (Result, error) {
	size = size.withDefaults()
	st := newBzip2State(env.Sys, size, env.Sys.Alloc)
	sum := uint64(0)
	for round := 0; round < size.Iters; round++ {
		for b := 0; b < st.blocks; b++ {
			st.writeRound(round, b)
			st.transform(b)
		}
		sum = checksum(sum, uint64(st.total.Load(0)))
	}
	return Result{Checksum: sum}, nil
}

func (bzip2Workload) RunDTT(env *Env, size Size) (Result, error) {
	if env.RT == nil {
		return Result{}, fmt.Errorf("bzip2: DTT run without a runtime")
	}
	size = size.withDefaults()
	rt := env.RT
	var sigRegion *core.Region
	st := newBzip2State(env.Sys, size, func(name string, n int) *mem.Buffer {
		if name == "bzip2.sig" {
			sigRegion = rt.NewRegion(name, n)
			return sigRegion.Buffer()
		}
		return env.Sys.Alloc(name, n)
	})

	sort := rt.Register("bzip2.transform", func(tg core.Trigger) {
		st.transform(tg.Index)
	})
	if err := rt.Attach(sort, sigRegion, 0, st.blocks); err != nil {
		return Result{}, err
	}

	sum := uint64(0)
	for round := 0; round < size.Iters; round++ {
		for b := 0; b < st.blocks; b++ {
			st.writeRound(round, b)
			sigRegion.TStore(b, st.signature(b))
		}
		rt.Wait(sort)
		sum = checksum(sum, uint64(st.total.Load(0)))
	}
	rt.Barrier()
	return Result{Checksum: sum, Triggers: st.blocks}, nil
}

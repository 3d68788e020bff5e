package workloads

import (
	"fmt"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// gzipWorkload models 164.gzip.
//
// SPEC drives gzip over the same input repeatedly at different compression
// levels, so the hash-chain match search — by far the dominant cost — runs
// again and again over data it has already seen. The kernel compresses a
// stream of blocks round after round; between rounds only a few blocks
// mutate. The DTT transform summarises each block into a signature word
// written with a triggering store: unchanged blocks produce a silent store
// and their recompression is skipped.
type gzipWorkload struct{}

func init() { register(gzipWorkload{}) }

func (gzipWorkload) Name() string  { return "gzip" }
func (gzipWorkload) Suite() string { return "SPEC CPU2000 int (164.gzip)" }
func (gzipWorkload) Description() string {
	return "block compression: recompress only blocks whose content signature changed"
}

// gzip dimensions.
const (
	gzipBlocksBase = 48
	gzipBlockWords = 96
	gzipMatchCost  = 5 // ALU ops per word of match search
	gzipMutateFrac = 3 // (frac-1)/frac of the blocks mutate per round
	gzipHashWindow = 8 // hash-chain window for the match model
)

type gzipState struct {
	sys    *mem.System
	seed   uint64
	blocks int
	data   *mem.Buffer // block contents, [block*blockWords + i]
	sig    *mem.Buffer // per-block content signature (trigger words in DTT)
	outSz  *mem.Buffer // per-block compressed size
	total  *mem.Buffer // [0] = total compressed size
}

// writeRound writes the round's content of block b and returns nothing;
// most blocks get identical content to the previous round.
func (st *gzipState) writeRound(round, b int) {
	h := uint64(b)*0x9e3779b97f4a7c15 + uint64(round)*0x94d049bb133111eb
	h ^= h >> 32
	mutated := h%gzipMutateFrac != 0
	base := b * gzipBlockWords
	for i := 0; i < gzipBlockWords; i++ {
		v := uint64(b)*131071 + uint64(i)*8191 + st.seed*uint64(i*i+3)
		if mutated {
			v += uint64(round) * 524287 * uint64(i%5)
		}
		st.data.Store(base+i, v%97)
		st.sys.Compute(1)
	}
}

// signature folds block b's content into one word — the programmer-supplied
// change summariser of the software-DTT idiom.
func (st *gzipState) signature(b int) mem.Word {
	base := b * gzipBlockWords
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < gzipBlockWords; i++ {
		h = (h ^ uint64(st.data.Load(base+i))) * 1099511628211
		st.sys.Compute(1)
	}
	return mem.Word(h)
}

// deflate models gzip's hash-chain match search over block b: for each
// position it scores candidate matches inside a sliding window and emits a
// literal/match decision, producing a compressed size.
func (st *gzipState) deflate(b int) {
	base := b * gzipBlockWords
	var size int64
	for i := 0; i < gzipBlockWords; i++ {
		cur := st.data.Load(base + i)
		bestLen := int64(0)
		lo := i - gzipHashWindow
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			st.sys.Compute(gzipMatchCost)
			if st.data.Load(base+j) == cur {
				bestLen = int64(i - j)
			}
		}
		if bestLen > 0 {
			size += 2 // match token
		} else {
			size += 3 // literal token
		}
		st.sys.Compute(1)
	}
	old := signed(st.outSz.Load(b))
	if size != old {
		st.outSz.Store(b, word(size))
		st.total.Store(0, word(signed(st.total.Load(0))+size-old))
	}
}

func newGzipState(sys *mem.System, size Size, alloc func(string, int) *mem.Buffer) *gzipState {
	size = size.withDefaults()
	st := &gzipState{sys: sys, seed: size.Seed, blocks: gzipBlocksBase * size.Scale}
	st.data = alloc("gzip.data", st.blocks*gzipBlockWords)
	st.sig = alloc("gzip.sig", st.blocks)
	st.outSz = alloc("gzip.outSz", st.blocks)
	st.total = alloc("gzip.total", 1)
	return st
}

func (gzipWorkload) RunBaseline(env *Env, size Size) (Result, error) {
	size = size.withDefaults()
	st := newGzipState(env.Sys, size, env.Sys.Alloc)
	sum := uint64(0)
	for round := 0; round < size.Iters; round++ {
		for b := 0; b < st.blocks; b++ {
			st.writeRound(round, b)
			st.deflate(b) // recompress every block, changed or not
		}
		sum = checksum(sum, uint64(st.total.Load(0)))
	}
	return Result{Checksum: sum, Triggers: 0}, nil
}

func (gzipWorkload) RunDTT(env *Env, size Size) (Result, error) {
	if env.RT == nil {
		return Result{}, fmt.Errorf("gzip: DTT run without a runtime")
	}
	size = size.withDefaults()
	rt := env.RT
	var sigRegion *core.Region
	st := newGzipState(env.Sys, size, func(name string, n int) *mem.Buffer {
		if name == "gzip.sig" {
			sigRegion = rt.NewRegion(name, n)
			return sigRegion.Buffer()
		}
		return env.Sys.Alloc(name, n)
	})

	compress := rt.Register("gzip.deflate", func(tg core.Trigger) {
		st.deflate(tg.Index)
	})
	if err := rt.Attach(compress, sigRegion, 0, st.blocks); err != nil {
		return Result{}, err
	}

	sum := uint64(0)
	for round := 0; round < size.Iters; round++ {
		for b := 0; b < st.blocks; b++ {
			st.writeRound(round, b)
			sigRegion.TStore(b, st.signature(b))
		}
		rt.Wait(compress)
		sum = checksum(sum, uint64(st.total.Load(0)))
	}
	rt.Barrier()
	return Result{Checksum: sum, Triggers: st.blocks}, nil
}

package main

import (
	"fmt"
	"slices"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/sched"
)

// ingestWorkload drives the same core/mem layer three ways from one
// producer goroutine beside one worker: scalar triggering stores, batched
// stores and batched commutative updates, then reads that force the merge.
// A round is the unit; a store or update operand is the op.
type ingestWorkload struct{}

func (ingestWorkload) name() string { return "ingest" }

// Frozen sizes. The silent shares are exact in every round (a strided
// selection, not a coin per word), so rounds cost the same across seeds:
// 75% of scalar stores are silent (the paper's silent-store share), 50% of
// batched stores, and 25% of update operands are zero (silent merges).
const (
	ingestWords      = 4096
	ingestBatch      = 64
	ingestLoads      = 16
	ingestOpsPerRnd  = 3 * ingestWords
	ingestWarmRounds = 20
	// ingestMaxRounds bounds the traced run's round times: twice what the
	// baseline host completes in a 60 s run.
	ingestMaxRounds = 1 << 17
)

type ingestInstance struct {
	rt             *core.Runtime
	keys, ctrs     *core.Region
	mirrorT, viewT core.ThreadID
	// mirror and view are the support threads' outputs; the producer
	// reads them only after Wait.
	mirror, view []mem.Word

	rng *sched.Scheduler
	// keysRef and ctrsRef are the plain-Go reference model, advanced as
	// each round's inputs are generated.
	keysRef, ctrsRef    []mem.Word
	scalar, batch, upds []mem.Word
	loads               [ingestLoads]int

	tr       *tracer
	failures []string
	sink     mem.Word

	// Sums over the traced trials.
	rounds  int64
	phase   [5]time.Duration // tstore, tstore_batch, tupdate_batch, merge_read, wait
	core    coreCounts
	heap    heapCounts
	samples []counterSample
	roundNs []int64
}

func (ingestWorkload) setup(seed uint64, traced bool) (instance, error) {
	rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 1, QueueCapacity: queueCapacity, Telemetry: traced})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	in := &ingestInstance{
		rt:      rt,
		keys:    rt.NewRegion("ingest.keys", ingestWords),
		ctrs:    rt.NewRegion("ingest.ctrs", ingestWords),
		mirror:  make([]mem.Word, ingestWords),
		view:    make([]mem.Word, ingestWords),
		rng:     sched.New(seed),
		keysRef: make([]mem.Word, ingestWords),
		ctrsRef: make([]mem.Word, ingestWords),
		scalar:  make([]mem.Word, ingestWords),
		batch:   make([]mem.Word, ingestWords),
		upds:    make([]mem.Word, ingestWords),
	}
	if traced {
		in.tr = newTracer()
		in.roundNs = make([]int64, 0, ingestMaxRounds)
	}
	// Both bodies are idempotent: they copy what memory holds when they
	// run, so squashed and reordered triggers converge on the same output.
	in.mirrorT = rt.Register("ingest.mirror", func(tg core.Trigger) {
		in.mirror[tg.Index] = tg.Region.Load(tg.Index)*3 + 1
	})
	in.viewT = rt.Register("ingest.view", func(tg core.Trigger) {
		in.view[tg.Index] = tg.Region.Load(tg.Index)
	})
	if err := rt.Attach(in.mirrorT, in.keys, 0, ingestWords); err != nil {
		rt.Close()
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if err := rt.Attach(in.viewT, in.ctrs, 0, ingestWords); err != nil {
		rt.Close()
		return nil, fmt.Errorf("ingest: %w", err)
	}
	for i := range in.mirror {
		in.mirror[i] = 1 // the body's output for the regions' initial zeroes
	}
	for r := 0; r < ingestWarmRounds; r++ {
		in.generate()
		if _, failed := in.round(nil, -1); failed != 0 {
			rt.Close()
			return nil, fmt.Errorf("ingest: warm-up: %v", in.failures)
		}
	}
	return in, nil
}

// generate draws the next round's inputs and advances the reference
// model. A strided walk with a random odd stride and offset picks exactly
// the share of words that change.
func (in *ingestInstance) generate() {
	pick := func(window int) (stride, off int) {
		return in.rng.Pick(window/2)*2 + 1, in.rng.Pick(window)
	}
	stride, off := pick(ingestWords)
	for i := range in.scalar {
		if (i*stride+off)%ingestWords < ingestWords/4 {
			in.keysRef[i] += 1 + in.rng.Uint64()&0xffff
		}
		in.scalar[i] = in.keysRef[i]
	}
	stride, off = pick(ingestBatch)
	for i := range in.batch {
		if (i*stride+off)%ingestBatch < ingestBatch/2 {
			in.keysRef[i] += 1 + in.rng.Uint64()&0xffff
		}
		in.batch[i] = in.keysRef[i]
	}
	stride, off = pick(ingestWords)
	for i := range in.upds {
		in.upds[i] = 0
		if (i*stride+off)%ingestWords >= ingestWords/4 {
			in.upds[i] = 1 + in.rng.Uint64()&0xff
		}
		in.ctrsRef[i] += in.upds[i]
	}
	for i := range in.loads {
		in.loads[i] = in.rng.Pick(ingestWords)
	}
}

// round ingests the generated inputs and returns how long that took and
// how many operations failed a check. The checks run after the clock has
// stopped.
func (in *ingestInstance) round(tr *tracer, parent int32) (wall time.Duration, failed int64) {
	req := in.rounds
	var cut [6]int64
	rs := tr.begin(spRound, parent, req)
	cut[0] = now()
	sp := tr.begin(spTStore, rs, req)
	for i, v := range in.scalar {
		in.keys.TStore(i, v)
	}
	tr.end(sp)
	cut[1] = now()
	sp = tr.begin(spTStoreBatch, rs, req)
	for lo := 0; lo < ingestWords; lo += ingestBatch {
		in.keys.TStoreBatch(lo, in.batch[lo:lo+ingestBatch])
	}
	tr.end(sp)
	cut[2] = now()
	sp = tr.begin(spTUpdateBatch, rs, req)
	for lo := 0; lo < ingestWords; lo += ingestBatch {
		in.ctrs.TUpdateBatch(lo, core.UpdAdd, in.upds[lo:lo+ingestBatch])
	}
	tr.end(sp)
	cut[3] = now()
	// Reads beside writes: the first load merges every pending delta and
	// fires the view triggers.
	sp = tr.begin(spMergeRead, rs, req)
	var got [ingestLoads]mem.Word
	for i, idx := range in.loads {
		got[i] = in.ctrs.Load(idx)
	}
	tr.end(sp)
	cut[4] = now()
	sp = tr.begin(spWait, rs, req)
	in.rt.Wait(in.mirrorT)
	in.rt.Wait(in.viewT)
	tr.end(sp)
	cut[5] = now()
	tr.end(rs)

	if tr != nil {
		for p := range in.phase {
			in.phase[p] += time.Duration(cut[p+1] - cut[p])
		}
		if len(in.roundNs) < cap(in.roundNs) {
			in.roundNs = append(in.roundNs, cut[5]-cut[0])
		}
	}
	for i, idx := range in.loads {
		if got[i] != in.ctrsRef[idx] || in.view[idx] != in.ctrsRef[idx] || in.mirror[idx] != in.keysRef[idx]*3+1 {
			failed++
		}
	}
	if failed > 0 {
		in.failures = append(in.failures, fmt.Sprintf("ingest: round %d: %d of %d sampled words disagree with the reference model", req, failed, ingestLoads))
	}
	return time.Duration(cut[5] - cut[0]), failed
}

func (in *ingestInstance) trial(d time.Duration, spanShare float64) trialResult {
	in.tr.allow(spanShare)
	var res trialResult
	var c0 coreCounts
	var h0 heapCounts
	if in.tr != nil {
		c0, h0 = readCore(in.rt), readHeap()
		in.samples = append(in.samples, counterSample{AtNs: now(), Trial: len(in.samples) / 2, Edge: "start", Values: c0.values()})
	}
	ts := in.tr.begin(spTrial, -1, in.rounds)
	// Inputs are generated between rounds, outside the clock: the clock is
	// the sum of the rounds plus the final Barrier.
	for start := now(); res.ops == 0 || time.Duration(now()-start) < d; {
		in.generate()
		cpu0 := cpuNow()
		wall, failed := in.round(in.tr, ts)
		res.cpu += cpuNow() - cpu0
		res.wall += wall
		res.failed += failed
		res.ops += ingestOpsPerRnd
		in.rounds++
	}
	cpu0, b0 := cpuNow(), now()
	in.rt.Barrier()
	res.wall += time.Duration(now() - b0)
	res.cpu += cpuNow() - cpu0
	in.tr.end(ts)
	if in.tr != nil {
		c1 := readCore(in.rt)
		in.core.addDelta(c0, c1)
		in.heap.addDelta(h0, readHeap())
		in.samples = append(in.samples, counterSample{AtNs: now(), Trial: len(in.samples) / 2, Edge: "end", Values: c1.values()})
	}
	res.attempted = res.ops
	return res
}

func (in *ingestInstance) layers() map[string]float64 {
	m := map[string]float64{}
	rounds := float64(in.rounds)
	in.core.report(m, rounds)
	in.heap.report(m, rounds*ingestOpsPerRnd)
	perWord := func(p time.Duration, words float64) float64 { return ratio(float64(p), rounds*words) }
	m["core.tstore_ns_per_op"] = perWord(in.phase[0], ingestWords)
	m["core.tstore_batch_ns_per_word"] = perWord(in.phase[1], ingestWords)
	m["core.tupdate_batch_ns_per_word"] = perWord(in.phase[2], ingestWords)
	m["core.merge_read_ns_per_word"] = ratio(float64(in.phase[3]), float64(in.core.st.MergedUpdates))
	m["core.wait_ns_per_round"] = perWord(in.phase[4], 1)
	slices.Sort(in.roundNs)
	m["core.round_p50_us"] = quantile(in.roundNs, 0.5) / 1e3
	m["core.round_p99_us"] = quantile(in.roundNs, 0.99) / 1e3
	return m
}

func (in *ingestInstance) trace() ([]*tracer, []counterSample) { return []*tracer{in.tr}, in.samples }

// finish compares every word of the regions and of both outputs with the
// reference model, checks the conservation identity, and stops the runtime.
func (in *ingestInstance) finish() (failed int64, failures []string) {
	in.rt.Barrier()
	for i := 0; i < ingestWords; i++ {
		if in.keys.Peek(i) != in.keysRef[i] || in.mirror[i] != in.keysRef[i]*3+1 {
			failed++
		}
		if in.ctrs.Peek(i) != in.ctrsRef[i] || in.view[i] != in.ctrsRef[i] {
			failed++
		}
	}
	if failed > 0 {
		in.failures = append(in.failures, fmt.Sprintf("ingest: %d final words disagree with the reference model", failed))
	}
	in.failures = append(in.failures, checkIdentity("ingest", in.rt.Stats())...)
	in.rt.Close()
	return failed, in.failures
}

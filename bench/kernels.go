package main

import (
	"fmt"
	"time"

	"dtt/internal/core"
	"dtt/internal/workloads"
)

// kernelsWorkload runs a group of the paper's kernels on the DTT runtime,
// each on a fresh runtime. One pass over the group is the unit; a
// kernel's outer iteration is the op. The recompute-everything baseline
// of each kernel is the reference its checksum must equal: an untraced
// run computes it once, outside the clock; a traced run alternates
// baseline and DTT inside each pass, so that the speedup is taken under
// shared host noise.
type kernelsWorkload struct {
	group string
	names []string
	iters int
	// refs holds the baselines' checksums by seed. They are a function of
	// the kernels, the size and the seed, and a baseline pass of
	// kernels_coarse takes a second, so one is computed per seed, not one
	// per instance.
	refs map[uint64][]uint64
}

func (w *kernelsWorkload) name() string { return "kernels_" + w.group }

// reference returns the checksum each kernel's baseline gives at size.
func (w *kernelsWorkload) reference(ws []workloads.Workload, size workloads.Size) ([]uint64, error) {
	if ref, ok := w.refs[size.Seed]; ok {
		return ref, nil
	}
	ref := make([]uint64, len(ws))
	for i, k := range ws {
		base, err := k.RunBaseline(workloads.NewBaselineEnv(), size)
		if err != nil {
			return nil, fmt.Errorf("%s: baseline: %w", k.Name(), err)
		}
		ref[i] = base.Checksum
	}
	if w.refs == nil {
		w.refs = map[uint64][]uint64{}
	}
	w.refs[size.Seed] = ref
	return ref, nil
}

// kernelScale is frozen with the iteration counts in workloadList: the
// data is sixteen times the experiments' default.
const kernelScale = 4

// queueCapacity holds the longest trigger burst of the kernels (3100, an
// iteration of mesa) and of ingest (3072, one merge), so no trigger
// overflows to an inline run. An overflowed trigger costs about 7 us
// against 0.2 us for a queued one, and that cost settles per runtime
// instance on one of a few levels that last for seconds: at the
// experiments' capacity of 1024, equake takes 330 or 400 ms a run in place
// of 46 and an ingest round 4.6, 9.5 or 18 ms in place of 1.0, and no run
// of 20 s repeats within a quarter. core.overflow_ratio reads 0 on every
// workload; a change that makes it read more has changed the workload.
const queueCapacity = 8192

type kernelsInstance struct {
	w    *kernelsWorkload
	ws   []workloads.Workload
	size workloads.Size
	cfg  core.Config
	tr   *tracer

	// sums[i] is the checksum of kernel i's first timed DTT run; every
	// later run must repeat it and the baseline must equal it.
	sums     []uint64
	passes   int64
	failures []string

	// Sums over the traced trials.
	baseWall, dttWall time.Duration
	kBase, kDTT       []time.Duration // per kernel
	core              coreCounts
	heap              heapCounts
	samples           []counterSample
}

func (w *kernelsWorkload) setup(seed uint64, traced bool) (instance, error) {
	in := &kernelsInstance{
		w:    w,
		size: workloads.Size{Scale: kernelScale, Iters: w.iters, Seed: seed},
		// One worker: what two cores leave beside the main thread.
		cfg:   core.Config{Backend: core.BackendImmediate, Workers: 1, QueueCapacity: queueCapacity, Telemetry: traced},
		sums:  make([]uint64, len(w.names)),
		kBase: make([]time.Duration, len(w.names)),
		kDTT:  make([]time.Duration, len(w.names)),
	}
	if traced {
		in.tr = newTracer()
	}
	for _, n := range w.names {
		k, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("%s: no kernel %q", w.name(), n)
		}
		in.ws = append(in.ws, k)
	}
	// Warm-up: a short pass faults in the kernels' code and the
	// allocator's size classes.
	warm := in.size
	warm.Iters = max(1, w.iters/8)
	if _, failed := in.pass(warm, false, -1); failed != 0 {
		return nil, fmt.Errorf("%s: warm-up: %v", w.name(), in.failures)
	}
	return in, nil
}

// pass runs every kernel once and returns the DTT wall and CPU time of
// the pass and the iterations whose result failed a check. timed is false
// for the warm-up, which leaves no record behind.
func (in *kernelsInstance) pass(size workloads.Size, timed bool, parent int32) (dtt trialResult, failed int64) {
	var tr *tracer
	if timed {
		tr = in.tr
	}
	req := in.passes
	for i, k := range in.ws {
		ks := tr.begin(spKernel, parent, req)
		var base workloads.Result
		var berr error
		var bWall time.Duration
		if tr != nil {
			sp := tr.begin(spBaseline, ks, req)
			b0 := now()
			base, berr = k.RunBaseline(workloads.NewBaselineEnv(), size)
			bWall = time.Duration(now() - b0)
			tr.end(sp)
		}

		rt, err := core.New(in.cfg)
		if err != nil {
			in.failures = append(in.failures, fmt.Sprintf("%s: core.New: %v", k.Name(), err))
			failed += int64(size.Iters)
			tr.end(ks)
			continue
		}
		var h0 heapCounts
		if tr != nil {
			h0 = readHeap()
		}
		sp := tr.begin(spDTT, ks, req)
		c0, d0 := cpuNow(), now()
		res, derr := k.RunDTT(workloads.NewDTTEnv(rt), size)
		dWall, dCPU := time.Duration(now()-d0), cpuNow()-c0
		tr.end(sp)
		tr.end(ks)

		counts := readCore(rt)
		rt.Close()
		bad := checkIdentity(k.Name(), counts.st)
		if timed && in.passes == 0 {
			in.sums[i] = res.Checksum
		}
		switch {
		case berr != nil:
			bad = append(bad, fmt.Sprintf("%s: baseline: %v", k.Name(), berr))
		case derr != nil:
			bad = append(bad, fmt.Sprintf("%s: dtt: %v", k.Name(), derr))
		case timed && res.Checksum != in.sums[i]:
			bad = append(bad, fmt.Sprintf("%s: dtt checksum %#x, an earlier pass had %#x", k.Name(), res.Checksum, in.sums[i]))
		case tr != nil && base.Checksum != res.Checksum:
			bad = append(bad, fmt.Sprintf("%s: checksum baseline %#x != dtt %#x", k.Name(), base.Checksum, res.Checksum))
		}
		if len(bad) > 0 {
			in.failures = append(in.failures, bad...)
			failed += int64(size.Iters)
		}
		dtt.ops += int64(size.Iters)
		dtt.wall += dWall
		dtt.cpu += dCPU
		if tr != nil {
			in.heap.addDelta(h0, readHeap())
			in.core.addDelta(coreCounts{}, counts)
			in.baseWall += bWall
			in.dttWall += dWall
			in.kBase[i] += bWall
			in.kDTT[i] += dWall
			in.samples = append(in.samples, counterSample{AtNs: now(), Trial: int(req), Edge: "end:" + k.Name(), Values: counts.values()})
		}
	}
	if timed {
		in.passes++
	}
	return dtt, failed
}

func (in *kernelsInstance) trial(d time.Duration, spanShare float64) trialResult {
	in.tr.allow(spanShare)
	var res trialResult
	ts := in.tr.begin(spTrial, -1, in.passes)
	for start := now(); res.ops == 0 || time.Duration(now()-start) < d; {
		p, failed := in.pass(in.size, true, ts)
		res.ops += p.ops
		res.wall += p.wall
		res.cpu += p.cpu
		res.failed += failed
	}
	in.tr.end(ts)
	res.attempted = res.ops
	return res
}

func (in *kernelsInstance) layers() map[string]float64 {
	m := map[string]float64{}
	passes := float64(in.passes)
	in.core.report(m, passes)
	in.heap.report(m, passes*float64(len(in.ws)*in.size.Iters))
	m["workloads.baseline_wall_s"] = ratio(in.baseWall.Seconds(), passes)
	m["workloads.dtt_wall_s"] = ratio(in.dttWall.Seconds(), passes)
	m["workloads.speedup_x"] = ratio(in.baseWall.Seconds(), in.dttWall.Seconds())
	m["workloads.body_busy_s"] = ratio(float64(in.core.run.Sum)/1e9, passes)
	for i, k := range in.ws {
		m["workloads.speedup_x."+k.Name()] = ratio(in.kBase[i].Seconds(), in.kDTT[i].Seconds())
	}
	m["core.wall_per_fired_ns"] = ratio(float64(in.dttWall), float64(in.core.st.Fired))
	return m
}

func (in *kernelsInstance) trace() ([]*tracer, []counterSample) { return []*tracer{in.tr}, in.samples }

// finish compares the timed passes' checksums with the baseline's, which
// a traced instance has already done pass by pass. Every runtime was
// checked and closed in the pass that made it, so nothing is left to stop.
func (in *kernelsInstance) finish() (failed int64, failures []string) {
	if in.tr != nil || in.passes == 0 {
		return 0, in.failures
	}
	ref, err := in.w.reference(in.ws, in.size)
	if err != nil {
		in.failures = append(in.failures, err.Error())
		return in.passes * int64(len(in.ws)*in.size.Iters), in.failures
	}
	for i, k := range in.ws {
		if ref[i] != in.sums[i] {
			in.failures = append(in.failures, fmt.Sprintf("%s: checksum baseline %#x != dtt %#x", k.Name(), ref[i], in.sums[i]))
			failed += in.passes * int64(in.size.Iters)
		}
	}
	return failed, in.failures
}

package harness

import (
	"fmt"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/sim"
	"dtt/internal/stats"
	"dtt/internal/trace"
	"dtt/internal/workloads"
)

func init() {
	registerExperiment(Experiment{
		ID:    "F14",
		Title: "Design-space characterisation: when does DTT pay off?",
		Run:   runF14,
	})
}

// synthSpeedup runs the synthetic microbenchmark baseline vs DTT on the
// evaluation machine and returns the simulated speedup.
func synthSpeedup(sy workloads.Synthetic, opts Options) (float64, error) {
	sp, _, err := synthSpeedupSplit(sy, opts)
	return sp, err
}

// synthSpeedupSplit additionally returns the elimination-only speedup (the
// DTT trace flattened onto one context).
func synthSpeedupSplit(sy workloads.Synthetic, opts Options) (full, elim float64, err error) {
	size := opts.size()

	sys := mem.NewSystem()
	rec := trace.NewRecorder(mem.NewHierarchy(mem.DefaultHierarchy()))
	sys.AttachProbe(rec)
	baseRes, err := sy.RunBaseline(&workloads.Env{Sys: sys}, size)
	if err != nil {
		return 0, 0, err
	}
	baseTrace, err := rec.Finish()
	if err != nil {
		return 0, 0, err
	}

	recD := trace.NewRecorder(mem.NewHierarchy(mem.DefaultHierarchy()))
	rt, err := core.New(core.Config{Recorder: recD})
	if err != nil {
		return 0, 0, err
	}
	defer rt.Close()
	dttRes, err := sy.RunDTT(workloads.NewDTTEnv(rt), size)
	if err != nil {
		return 0, 0, err
	}
	dttTrace, err := recD.Finish()
	if err != nil {
		return 0, 0, err
	}
	if baseRes.Checksum != dttRes.Checksum {
		return 0, 0, fmt.Errorf("harness: synthetic DTT diverged from baseline")
	}
	b, d, err := speedupPair(baseTrace, dttTrace, opts.machine())
	if err != nil {
		return 0, 0, err
	}
	e, err := sim.Run(dttTrace.Serialize(), opts.machine())
	if err != nil {
		return 0, 0, err
	}
	return d.Speedup(b), e.Speedup(b), nil
}

// runF14 maps the design space with the synthetic microbenchmark: speedup
// as a function of the redundancy fraction, and separately of the guarded
// computation's size. Both axes have a break-even frontier — the paper's
// implicit "DTT pays off when data rarely changes and the guarded work is
// substantial", made explicit.
func runF14(opts Options) (*Report, error) {
	r := &Report{ID: "F14", Title: "Design-space characterisation"}

	// Axis 1: redundancy. 0% redundant (everything changes) to 99%.
	redFig := stats.NewFigure("Figure F14a: speedup vs redundancy fraction (thread=64 ops)", "x")
	redSeries := redFig.AddSeries("speedup")
	elimSeries := redFig.AddSeries("elimination-only")
	for _, red := range []int{0, 25, 50, 75, 90, 99} {
		sy := workloads.DefaultSynthetic()
		sy.ChangeFraction = 1 - float64(red)/100
		sp, elim, err := synthSpeedupSplit(sy, opts)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d%% redundant", red)
		redSeries.Add(label, sp)
		elimSeries.Add(label, elim)
		r.set(fmt.Sprintf("speedup_red%d", red), sp)
		r.set(fmt.Sprintf("elim_red%d", red), elim)
	}

	// Axis 2: guarded-computation size at fixed 75% redundancy.
	sizeFig := stats.NewFigure("Figure F14b: speedup vs support-thread size (75% redundant)", "x")
	sizeSeries := sizeFig.AddSeries("speedup")
	for _, ops := range []int{4, 16, 64, 256, 1024} {
		sy := workloads.DefaultSynthetic()
		sy.ChangeFraction = 0.25
		sy.ThreadOps = ops
		sp, err := synthSpeedup(sy, opts)
		if err != nil {
			return nil, err
		}
		sizeSeries.Add(fmt.Sprintf("%d ops", ops), sp)
		r.set(fmt.Sprintf("speedup_ops%d", ops), sp)
	}

	r.Sections = []string{
		redFig.String(),
		sizeFig.String(),
		"Speedup grows monotonically with redundancy and with the size of the guarded\n" +
			"computation. At 0% redundancy elimination-only collapses to break-even (a\n" +
			"triggering store costs the same pipeline slot as the store it replaces; only\n" +
			"the per-wait management instructions remain) and the full-DTT residual above 1\n" +
			"is overlap alone. The SPEC kernels sit on both sides of this frontier\n" +
			"(gzip/bzip2 near it, mcf far above it).",
	}
	return r, nil
}

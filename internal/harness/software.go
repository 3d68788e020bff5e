package harness

import (
	"fmt"
	"time"

	"dtt/internal/core"
	"dtt/internal/stats"
	"dtt/internal/workloads"
)

func init() {
	registerExperiment(Experiment{
		ID:    "F10",
		Title: "Software-DTT wall-clock speedup (goroutine backend)",
		Run:   runF10,
	})
}

// runF10 validates the follow-on software-DTT result: the same workloads,
// run natively in Go with the goroutine backend and no instrumentation,
// timed with the wall clock. Gains here come only from skipped computation
// and real goroutine overlap; runtime overhead (locks, queue management)
// is paid in full, so small-kernel speedups are necessarily more modest
// than the simulated-hardware numbers. Both walls are printed beside the
// ratio: a speedup moves when either side does, and only the walls say which.
func runF10(opts Options) (*Report, error) {
	size := opts.size()
	// Wall-clock needs enough work per measurement to dominate noise.
	size.Iters *= 4
	fig := stats.NewFigure("Figure F10: software DTT wall-clock speedup", "x")
	series := fig.AddSeries("speedup")
	walls := stats.NewTable("Wall clock per benchmark (best of 3)", "benchmark", "baseline ms", "DTT ms", "speedup")
	r := &Report{ID: "F10", Title: "Software-DTT wall-clock speedup"}
	var speedups []float64
	for _, w := range workloads.All() {
		baseT, baseSum, err := timeBaseline(w, size)
		if err != nil {
			return nil, err
		}
		dttT, dttSum, err := timeDTT(w, size)
		if err != nil {
			return nil, err
		}
		if baseSum != dttSum {
			return nil, fmt.Errorf("harness: %s: software DTT diverged from baseline", w.Name())
		}
		sp := float64(baseT) / float64(dttT)
		series.Add(w.Name(), sp)
		walls.AddRow(w.Name(), fmt.Sprintf("%.2f", baseT.Seconds()*1e3), fmt.Sprintf("%.2f", dttT.Seconds()*1e3), fmt.Sprintf("%.2fx", sp))
		speedups = append(speedups, sp)
		r.set("speedup_"+w.Name(), sp)
	}
	mean := stats.Mean(speedups)
	series.Add("average", mean)
	r.set("mean", mean)
	r.Sections = []string{
		fig.String(),
		walls.String(),
		fmt.Sprintf("Mean wall-clock speedup %.2fx with the goroutine backend. Values below the\n"+
			"simulated speedups reflect real software-DTT runtime overhead on small kernels.", mean),
	}
	return r, nil
}

// timeBaseline measures the best-of-3 wall time of an uninstrumented
// baseline run.
func timeBaseline(w workloads.Workload, size workloads.Size) (time.Duration, uint64, error) {
	best := time.Duration(1<<63 - 1)
	var sum uint64
	for rep := 0; rep < 3; rep++ {
		env := workloads.NewBaselineEnv()
		start := time.Now()
		res, err := w.RunBaseline(env, size)
		if err != nil {
			return 0, 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
		sum = res.Checksum
	}
	return best, sum, nil
}

// timeDTT measures the best-of-3 wall time of an uninstrumented DTT run on
// the immediate (goroutine) backend.
func timeDTT(w workloads.Workload, size workloads.Size) (time.Duration, uint64, error) {
	best := time.Duration(1<<63 - 1)
	var sum uint64
	for rep := 0; rep < 3; rep++ {
		// A production software-DTT deployment sizes the thread queue for
		// its burst rate; 1024 keeps trigger bursts off the slow overflow
		// path without hiding the per-trigger dispatch cost.
		rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 3, QueueCapacity: 1024})
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		res, err := w.RunDTT(workloads.NewDTTEnv(rt), size)
		if err != nil {
			rt.Close()
			return 0, 0, err
		}
		d := time.Since(start)
		rt.Close()
		if d < best {
			best = d
		}
		sum = res.Checksum
	}
	return best, sum, nil
}

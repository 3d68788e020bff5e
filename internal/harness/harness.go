// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation. Each experiment has an ID (T1..T3 for
// tables, F1..F10 for figures — see DESIGN.md for the mapping to the
// paper), renders human-readable output, and exposes the headline numbers
// for programmatic checks.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/sim"
	"dtt/internal/trace"
	"dtt/internal/workloads"
)

// Options parameterises an experiment run.
type Options struct {
	// Size overrides the workload size; the zero value selects defaults.
	Size workloads.Size
	// Machine overrides the simulated machine; the zero value selects
	// sim.Default(). Experiments that sweep machine parameters start from
	// this configuration.
	Machine sim.Config
}

func (o Options) size() workloads.Size {
	if o.Size == (workloads.Size{}) {
		return workloads.DefaultSize()
	}
	return o.Size
}

// evalMachine is the evaluation machine all experiments default to: a
// single SMT core with one spare context, narrow enough that a support
// thread genuinely contends with the main thread for issue bandwidth, as
// on the paper's simulated SMT processor.
func evalMachine() sim.Config {
	cfg := sim.Default()
	cfg.Cores = 1
	cfg.ContextsPerCore = 2
	cfg.IssueWidth = 6
	cfg.CtxIssueWidth = 4
	return cfg
}

func (o Options) machine() sim.Config {
	if o.Machine == (sim.Config{}) {
		return evalMachine()
	}
	return o.Machine
}

// Report is an experiment's result: rendered sections plus the headline
// values keyed by stable names for tests and EXPERIMENTS.md.
type Report struct {
	ID       string
	Title    string
	Sections []string
	Values   map[string]float64
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, s := range r.Sections {
		b.WriteString(s)
		if !strings.HasSuffix(s, "\n") {
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) set(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

var experiments []Experiment

func registerExperiment(e Experiment) { experiments = append(experiments, e) }

// Experiments returns all experiments in ID order (tables first, then
// figures, numerically).
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	sort.Slice(out, func(i, j int) bool { return expLess(out[i].ID, out[j].ID) })
	return out
}

func expLess(a, b string) bool {
	// T* sorts before F*; within a class, numeric suffix order.
	class := func(id string) int {
		if strings.HasPrefix(id, "T") {
			return 0
		}
		return 1
	}
	num := func(id string) int {
		n := 0
		fmt.Sscanf(id[1:], "%d", &n)
		return n
	}
	if class(a) != class(b) {
		return class(a) < class(b)
	}
	return num(a) < num(b)
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runInfo bundles everything one instrumented workload run produces.
type runInfo struct {
	trace *trace.Trace
	res   workloads.Result
	stats core.Stats
}

// recordBaseline runs w's baseline variant with a cache-classified recorder
// attached and returns the trace.
func recordBaseline(w workloads.Workload, size workloads.Size) (runInfo, error) {
	sys := mem.NewSystem()
	rec := trace.NewRecorder(mem.NewHierarchy(mem.DefaultHierarchy()))
	sys.AttachProbe(rec)
	res, err := w.RunBaseline(&workloads.Env{Sys: sys}, size)
	if err != nil {
		return runInfo{}, fmt.Errorf("harness: %s baseline: %w", w.Name(), err)
	}
	tr, err := rec.Finish()
	if err != nil {
		return runInfo{}, fmt.Errorf("harness: %s baseline trace: %w", w.Name(), err)
	}
	return runInfo{trace: tr, res: res}, nil
}

// recordDTT runs w's DTT variant on the deferred backend under a recorder.
// mut may adjust the runtime configuration (queue capacity, ...).
func recordDTT(w workloads.Workload, size workloads.Size, mut func(*core.Config)) (runInfo, error) {
	rec := trace.NewRecorder(mem.NewHierarchy(mem.DefaultHierarchy()))
	cfg := core.Config{Recorder: rec}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := core.New(cfg)
	if err != nil {
		return runInfo{}, err
	}
	defer rt.Close()
	res, err := w.RunDTT(workloads.NewDTTEnv(rt), size)
	if err != nil {
		return runInfo{}, fmt.Errorf("harness: %s DTT: %w", w.Name(), err)
	}
	tr, err := rec.Finish()
	if err != nil {
		return runInfo{}, fmt.Errorf("harness: %s DTT trace: %w", w.Name(), err)
	}
	return runInfo{trace: tr, res: res, stats: rt.Stats()}, nil
}

// verifyEquivalence fails loudly if a DTT run diverged from its baseline;
// every experiment that compares the two calls it so a broken transform can
// never masquerade as a speedup.
func verifyEquivalence(w workloads.Workload, base, dtt runInfo) error {
	if base.res.Checksum != dtt.res.Checksum {
		return fmt.Errorf("harness: %s: DTT checksum %#x != baseline %#x — transform is broken",
			w.Name(), dtt.res.Checksum, base.res.Checksum)
	}
	return nil
}

// speedupPair simulates a baseline and a DTT trace on the same machine and
// returns the cycle counts.
func speedupPair(base, dtt *trace.Trace, cfg sim.Config) (baseRes, dttRes sim.Result, err error) {
	baseRes, err = sim.Run(base, cfg)
	if err != nil {
		return
	}
	dttRes, err = sim.Run(dtt, cfg)
	return
}

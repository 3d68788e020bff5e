// Command bench is the yardstick for performance claims about the DTT
// runtime: five workloads, the end-to-end metrics of BENCHMARK.json from
// an untraced run and the per-layer metrics from a traced one. Every layer
// is measured from outside, by timing calls into its public functions and
// reading its public counters. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload makes instances of one benchmark workload.
type workload interface {
	name() string
	// setup makes the inputs from seed, builds the system under test and
	// warms it up. A traced instance has Config.Telemetry on and records
	// spans; all its trials are traced.
	setup(seed uint64, traced bool) (instance, error)
}

// instance is one set-up system under test.
type instance interface {
	// trial measures for about d (at least one unit of work). spanShare
	// is the share of its span memory a traced instance may have filled
	// by the end of this trial, so that every trial of a run gets spans.
	trial(d time.Duration, spanShare float64) trialResult
	// layers returns the per-layer metrics summed over the trials so far.
	layers() map[string]float64
	trace() ([]*tracer, []counterSample)
	// finish runs the final checks, stops everything the instance
	// started, and returns the operations they failed and every failure
	// message of the instance's life.
	finish() (failed int64, failures []string)
}

// trialResult is what one trial measured.
type trialResult struct {
	ops               int64         // operations completed under the clock
	wall, cpu         time.Duration // the clock, and the CPU time burnt under it
	attempted, failed int64
}

// opsPerS is the one end-to-end metric a trial yields.
func (r trialResult) opsPerS() float64 { return ratio(float64(r.ops), r.wall.Seconds()) }

// The frozen workloads. Names are final: later issues refer to them.
var workloadList = []workload{
	&kernelsWorkload{group: "fine", names: fineKernels, iters: 200},
	&kernelsWorkload{group: "coarse", names: coarseKernels, iters: 250},
	ingestWorkload{},
	serveWorkload{notify: false},
	serveWorkload{notify: true},
}

func workloadByName(name string) workload {
	for _, w := range workloadList {
		if w.name() == name {
			return w
		}
	}
	return nil
}

const (
	// trialLen is short against the host's noise: a neighbour slows this
	// VM by up to a third for one to ten seconds at a time, and a median
	// over many short trials moves less with that than one over a few long
	// ones.
	trialLen = 250 * time.Millisecond
	setups   = 5 // setup_s is the median of these
	// tracedSetups is how often a traced run sets up each of its two
	// instances, for telemetry.overhead_pct.setup_s.
	tracedSetups = 3
	traceOutDir  = "bench/out"
	defaultSecs  = 20
)

// hostInfo is printed on every report: numbers from different hosts do
// not compare.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func host() hostInfo {
	return hostInfo{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// producers is how many goroutines generate load: nproc, because load
// comes from this one process and a producer without a core of its own
// measures the Go scheduler.
func producers() int { return runtime.NumCPU() }

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a finished run: the result line plus what people read.
type report struct {
	result
	workload  string
	seed      uint64
	traced    bool
	trials    map[string][]float64 // per-trial (per-setup for setup_s) values behind each median
	failures  []string
	tracePath string
}

// runOptions are one run's inputs.
type runOptions struct {
	seed   uint64
	budget time.Duration // how long to measure
	traced bool
	outDir string
}

// setUp sets the workload up n times, for a traced run, and returns the
// last instance and how long each set-up took, in seconds. The spare
// instances are only there for their time.
func setUp(w workload, seed uint64, traced bool, n int) (in instance, took []float64, err error) {
	for i := 0; i < n; i++ {
		if in != nil {
			_, _ = in.finish()
		}
		t0 := now()
		if in, err = w.setup(seed, traced); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Duration(now()-t0).Seconds())
	}
	return in, took, nil
}

// measure runs one workload once and returns its report. An error means
// the system under test could not be set up at all.
func measure(w workload, o runOptions) (*report, error) {
	if o.traced {
		return measureTraced(w, o)
	}
	// Every set-up is measured for its share of the budget, and the trials
	// of all of them are pooled: a runtime instance can settle on a slow
	// level for its whole life (one ingest instance in five runs its rounds
	// in 1.5 ms, not 1.0), and the median over five instances forgives two.
	rep := &report{workload: w.name(), seed: o.seed, trials: map[string][]float64{}}
	for i := 0; i < setups; i++ {
		t0 := now()
		in, err := w.setup(o.seed, false)
		if err != nil {
			return nil, err
		}
		rep.trials["setup_s"] = append(rep.trials["setup_s"], time.Duration(now()-t0).Seconds())
		for start := now(); time.Duration(now()-start) < o.budget/setups; {
			rep.add(in.trial(trialLen, 0), rep.trials)
		}
		rep.finish(in)
	}
	rep.fill(endToEnd, func(name string) float64 { return median(rep.trials[name]) })
	return rep, nil
}

// measureTraced alternates plain and traced trials on two live instances:
// the traced ones give the per-layer metrics, and the difference between
// the two is what telemetry and the spans cost.
func measureTraced(w workload, o runOptions) (*report, error) {
	rep := &report{workload: w.name(), seed: o.seed, traced: true, trials: map[string][]float64{}}
	plain, offSetups, err := setUp(w, o.seed, false, tracedSetups)
	if err != nil {
		return nil, err
	}
	traced, onSetups, err := setUp(w, o.seed, true, tracedSetups)
	if err != nil {
		_, _ = plain.finish()
		return nil, err
	}
	// off and on hold the end-to-end values without and with tracing.
	off, on := map[string][]float64{"setup_s": offSetups}, map[string][]float64{"setup_s": onSetups}
	var tracedFor, cpu time.Duration
	var ops int64
	for start := now(); time.Duration(now()-start) < o.budget; {
		rep.add(plain.trial(trialLen, 0), off)
		b0 := now()
		r := traced.trial(trialLen, float64(tracedFor+trialLen)/float64(o.budget/2))
		tracedFor += time.Duration(now() - b0)
		rep.add(r, on)
		cpu += r.cpu
		ops += r.ops
	}
	rep.finish(plain)

	layers := traced.layers()
	layers["process.cpu_us_per_op"] = ratio(float64(cpu)/1e3, float64(ops))
	for _, m := range endToEnd {
		a, b := median(off[m.Name]), median(on[m.Name])
		pct := 100 * ratio(b-a, a)
		if m.Better == "higher" {
			pct = -pct
		}
		layers["telemetry.overhead_pct."+m.Name] = pct
	}
	tracers, samples := traced.trace()
	rep.finish(traced)
	rep.fill(perLayer, func(name string) float64 { return layers[name] })
	if path, err := writeTrace(o.outDir, w.name(), o.seed, tracers, samples); err != nil {
		rep.fail(err.Error())
	} else {
		rep.tracePath = path
	}
	return rep, nil
}

// add counts a trial's operations and files its end-to-end value.
func (rep *report) add(r trialResult, into map[string][]float64) {
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	into["ops_per_s"] = append(into["ops_per_s"], r.opsPerS())
}

// finish runs the instance's final checks, stops it and books what failed.
func (rep *report) finish(in instance) {
	failed, failures := in.finish()
	rep.Failed += failed
	rep.failures = append(rep.failures, failures...)
}

// fill makes the result line from the table, once every instance has
// finished.
func (rep *report) fill(table []metric, value func(string) float64) {
	rep.Metrics = make(map[string]metricValue, len(table))
	for _, m := range table {
		v := value(m.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail(fmt.Sprintf("metric %s is %v", m.Name, v))
			v = 0
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(rep.failures) > 0 && rep.Failed == 0 {
		rep.Failed = 1 // a failed check that names no operation still fails the run
	}
	rep.Attempted = max(rep.Attempted, 1)
	rep.Correct = rep.Failed == 0
}

func (rep *report) fail(msg string) {
	rep.failures = append(rep.failures, msg)
	rep.Failed++
	rep.Correct = false
}

// print writes the report for people, then the result line.
func (rep *report) print(out io.Writer) error {
	h := host()
	mode, table := "end-to-end (untraced)", endToEnd
	if rep.traced {
		mode, table = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(out, "workload %s  seed %d  %s\n", rep.workload, rep.seed, mode)
	fmt.Fprintf(out, "host %s/%s %s nproc=%d GOMAXPROCS=%d producers=%d\n", h.GOOS, h.GOARCH, h.GoVersion, h.NumCPU, h.GOMAXPROCS, producers())
	for _, m := range table {
		line := fmt.Sprintf("  %-40s %16.6g %-7s", m.Name, rep.Metrics[m.Name].Value, m.Unit)
		if ts := rep.trials[m.Name]; len(ts) > 0 {
			s := sorted(ts)
			line += fmt.Sprintf("  median of %d, quartiles %.6g to %.6g", len(s), s[len(s)/4], s[len(s)*3/4])
		}
		if m.Coarse {
			line += "  (bucketed telemetry read)"
		}
		if m.Moves != "" {
			line += "  -> " + m.Moves
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	if rep.tracePath != "" {
		fmt.Fprintf(out, "trace written to %s\n", rep.tracePath)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(out, "FAILED CHECK: %s\n", f)
	}
	fmt.Fprintf(out, "operations attempted %d failed %d\n", rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// selfCheck runs every workload `sets` times and compares the sets'
// medians: the benchmark may only judge a change by a bound it can hold
// against itself.
func selfCheck(out io.Writer, o runOptions, sets int) (ok bool, err error) {
	ok = true
	for _, w := range workloadList {
		var reps []*report
		for s := 0; s < sets; s++ {
			rep, err := measure(w, o)
			if err != nil {
				return false, err
			}
			if err := rep.print(out); err != nil {
				return false, err
			}
			ok = ok && rep.Correct
			reps = append(reps, rep)
		}
		fmt.Fprintf(out, "self-check %s: sets 2..%d against set 1\n", w.name(), sets)
		for _, m := range endToEnd {
			first := reps[0].Metrics[m.Name].Value
			for s, rep := range reps[1:] {
				diff := ratio(math.Abs(rep.Metrics[m.Name].Value-first), first)
				verdict := "ok"
				if diff > m.Bound {
					verdict, ok = "DISAGREES", false
				}
				fmt.Fprintf(out, "  %-16s set %d %12.6g vs %12.6g  diff %5.2f%%  bound %4.1f%%  %s\n",
					m.Name, s+2, rep.Metrics[m.Name].Value, first, 100*diff, 100*m.Bound, verdict)
			}
		}
	}
	return ok, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSecs, "how long one run measures")
	trace := fs.Int("trace", 0, "1 for the traced run that gives the per-layer metrics")
	sets := fs.Int("sets", 1, "with 2 or more: run every workload that many times and compare the sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *sets < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if h := host(); h.GOMAXPROCS < producers() {
		fmt.Fprintf(stderr, "bench: refusing to run %d producer goroutines on GOMAXPROCS=%d: they would time-share and the numbers would measure the scheduler\n",
			producers(), h.GOMAXPROCS)
		return 2
	}
	o := runOptions{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, outDir: traceOutDir}
	if *sets > 1 {
		ok, err := selfCheck(stdout, o, *sets)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	ws := workloadList
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	code := 0
	for _, w := range ws {
		rep, err := measure(w, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := rep.print(stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

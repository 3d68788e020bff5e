package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// smokeWorkloads are the five workloads with the kernels' iteration
// counts cut so the whole smoke stays under ten seconds.
var smokeWorkloads = []workload{
	&kernelsWorkload{group: "fine", names: fineKernels, iters: 4},
	&kernelsWorkload{group: "coarse", names: coarseKernels, iters: 4},
	ingestWorkload{},
	serveWorkload{notify: false},
	serveWorkload{notify: true},
}

// benchmarkJSON is the contract's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSecs {
		t.Errorf("run_seconds %d, the program's default is %d", bj.RunSeconds, defaultSecs)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloadList {
		want = append(want, w.name())
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, the program has %v", names, want)
	}
	check := func(kind string, got []jsonMetric, table []metric, bounded bool) {
		if len(got) != len(table) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(table))
			return
		}
		for i, m := range table {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s[%d] %s: bound differs from the program's %v", kind, i, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// checkNames fails unless the report carries exactly the table's metrics.
func checkNames(t *testing.T, rep *report, table []metric) {
	t.Helper()
	if len(rep.Metrics) != len(table) {
		t.Errorf("%d metrics reported, %d expected", len(rep.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range smokeWorkloads {
		t.Run(w.name(), func(t *testing.T) {
			rep, err := measure(w, runOptions{seed: 7, budget: 400 * time.Millisecond, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("untraced run: correct %v attempted %d failed %d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.failures)
			}
			checkNames(t, rep, endToEnd)
			for _, m := range endToEnd {
				if rep.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v: these are never 0", m.Name, rep.Metrics[m.Name].Value)
				}
				if n := len(rep.trials[m.Name]); n == 0 || (m.Name == "setup_s" && n != setups) {
					t.Errorf("%s is the median of %d values", m.Name, n)
				}
			}

			rep, err = measure(w, runOptions{seed: 7, budget: 600 * time.Millisecond, traced: true, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("traced run failed: %v", rep.failures)
			}
			checkNames(t, rep, perLayer)
			checkTraceFile(t, rep.tracePath, w.name())
		})
	}
}

// checkTraceFile parses a trace and checks its shape: children inside
// their parents, self times that add up to each root span.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 || len(tf.Counters) == 0 {
		t.Fatalf("%s: workload %q, %d spans, %d counter samples", path, tf.Workload, len(tf.Spans), len(tf.Counters))
	}
	// A root's descendants: spans are recorded in start order, so a
	// parent always precedes its children.
	root := make([]int, len(tf.Spans))
	selfSum := map[int]int64{}
	kinds := map[string]bool{}
	for i, s := range tf.Spans {
		kinds[s.Name] = true
		if s.ID != i || s.EndNs < s.StartNs {
			t.Fatalf("span %d: id %d, [%d, %d]", i, s.ID, s.StartNs, s.EndNs)
		}
		root[i] = i
		if s.Parent >= 0 {
			p := tf.Spans[s.Parent]
			if s.Parent >= i || s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Track != p.Track {
				t.Fatalf("span %d %s [%d, %d] lies outside its parent %d %s [%d, %d]", i, s.Name, s.StartNs, s.EndNs, s.Parent, p.Name, p.StartNs, p.EndNs)
			}
			root[i] = root[s.Parent]
		}
		selfSum[root[i]] += s.SelfNs
	}
	for r, sum := range selfSum {
		whole := tf.Spans[r].EndNs - tf.Spans[r].StartNs
		if diff := sum - whole; diff > whole/20 || diff < -whole/20 {
			t.Errorf("root span %d %s: self times sum to %d ns, the span is %d ns", r, tf.Spans[r].Name, sum, whole)
		}
	}
	want := map[string][]string{
		"kernels_fine":   {"trial", "kernel", "baseline", "dtt"},
		"kernels_coarse": {"trial", "kernel", "baseline", "dtt"},
		"ingest":         {"trial", "round", "tstore", "tstore_batch", "tupdate_batch", "merge_read", "wait"},
		"serve_rr":       {"request", "serve.batch", "serve.wait"},
		"serve_notify":   {"request", "serve.batch", "serve.wait", "serve.drain"},
	}[workload]
	for _, k := range want {
		if !kinds[k] {
			t.Errorf("no %q span in %s", k, path)
		}
	}
}

// A deliberately corrupted cache word must fail the run.
func TestCorruptedCacheFailsTheRun(t *testing.T) {
	for _, w := range []workload{serveWorkload{notify: true}, serveWorkload{notify: false}} {
		in, err := w.setup(3, false)
		if err != nil {
			t.Fatal(err)
		}
		if r := in.trial(50*time.Millisecond, 0); r.failed != 0 {
			t.Fatalf("%s: %d requests failed before the corruption", w.name(), r.failed)
		}
		in.(*serveInstance).clients[0].cache[5] ^= 1
		rep := &report{}
		rep.finish(in)
		rep.fill(endToEnd, func(string) float64 { return 1 })
		if rep.Correct || rep.Failed != 1 || len(rep.failures) != 1 {
			t.Errorf("%s: corrupted cache word: correct %v failed %d failures %v", w.name(), rep.Correct, rep.Failed, rep.failures)
		}
	}
}

// The ingest reference model must catch an output word that is wrong.
func TestCorruptedViewFailsTheRun(t *testing.T) {
	in, err := ingestWorkload{}.setup(3, false)
	if err != nil {
		t.Fatal(err)
	}
	in.trial(50*time.Millisecond, 0)
	in.(*ingestInstance).view[9]++
	if failed, failures := in.finish(); failed != 1 || len(failures) != 1 {
		t.Errorf("corrupted view word: failed %d failures %v", failed, failures)
	}
}

// A kernel whose DTT checksum differs from the baseline's must fail the run.
func TestWrongChecksumFailsTheRun(t *testing.T) {
	in, err := smokeWorkloads[0].setup(3, false)
	if err != nil {
		t.Fatal(err)
	}
	r := in.trial(time.Millisecond, 0)
	in.(*kernelsInstance).sums[1]++
	if failed, failures := in.finish(); failed != r.ops/int64(len(fineKernels)) || len(failures) != 1 {
		t.Errorf("wrong checksum: %d of %d operations failed, failures %v", failed, r.ops, failures)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "ingest", "-seconds", "0"},
		{"-workload", "ingest", "-trace", "2"},
		{"-workload", "ingest", "extra"},
	} {
		if code := run(args, os.Stderr, os.Stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(s, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(s, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

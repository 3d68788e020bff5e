package core

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dtt/internal/mem"
	"dtt/internal/trace"
)

// observedRun is what one run of the composition program leaves behind.
type observedRun struct {
	memory     [][]mem.Word
	stats      Stats
	runs       []int64 // bodies run per thread, queued or inline
	violations []Violation
	trace      *trace.Trace // nil without a recorder
}

// runObserved runs one fixed program under cfg: scalar, batched and merged
// triggering writes, a cascade, a two-entry queue that overflows into inline
// runs, a Cancel, and — deliberately — a read of an output word before the
// Wait that would order it, which the sanitizer reports as read-before-wait.
func runObserved(t *testing.T, cfg Config) observedRun {
	t.Helper()
	cfg.QueueCapacity = 2
	rt := newRuntime(t, cfg)
	run := observedRun{runs: make([]int64, 3)}
	in, out, sum := rt.NewRegion("in", 8), rt.NewRegion("out", 8), rt.NewRegion("sum", 2)
	double := rt.Register("double", func(tg Trigger) {
		run.runs[0]++
		rt.System().Compute(3)
		out.Store(tg.Index, 2*tg.Region.Load(tg.Index))
	})
	total := rt.Register("total", func(tg Trigger) {
		run.runs[1]++
		sum.Store(1, sum.Load(1)+tg.Region.Load(tg.Index))
	})
	echo := rt.Register("echo", func(tg Trigger) {
		run.runs[2]++
		sum.TUpdate(0, UpdAdd, tg.Region.Load(tg.Index))
	})
	for _, err := range []error{
		rt.Attach(double, in, 0, 8),
		rt.Attach(total, sum, 0, 1), rt.Attach(echo, out, 0, 2),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := uint64(1); round <= 3; round++ {
		in.TStore(0, round)
		in.TStoreBatch(1, []mem.Word{round, 5, round * 3, 5, round, 9, round % 2})
		sum.TUpdate(0, UpdAdd, round)
		_ = out.Load(7) // the read under test: no Wait orders it after the writer
		rt.Wait(double)
		rt.Barrier()
	}
	rt.Cancel(echo)
	in.TStore(0, 99)
	rt.Barrier()

	run.stats, run.violations = rt.Stats(), rt.Violations()
	for _, r := range []*Region{in, out, sum} {
		run.memory = append(run.memory, r.Snapshot())
	}
	if cfg.Recorder != nil {
		var err error
		if run.trace, err = cfg.Recorder.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// TestObserversCompose: the sanitizer, telemetry and the recorder observe the
// pipeline and decide nothing in it, and none of them calls another, so every
// subset of them leaves the same run behind — memory, Stats and the bodies
// each thread ran — on the deferred backend and under three schedules. Every
// subset with the sanitizer reports the same violations, and every subset
// with the recorder records the same trace, the sanitizer attached or not.
func TestObserversCompose(t *testing.T) {
	for _, base := range []Config{
		{Backend: BackendDeferred},
		{Backend: BackendSeeded, SchedSeed: 0},
		{Backend: BackendSeeded, SchedSeed: 7},
		{Backend: BackendSeeded, SchedSeed: 12345},
	} {
		name := fmt.Sprintf("%v/seed%d", base.Backend, base.SchedSeed)
		var plain, checked, recorded *observedRun
		for set := 0; set < 8; set++ {
			cfg := base
			if set&1 != 0 {
				cfg.Checker = CheckStrict
			}
			cfg.Telemetry = set&2 != 0
			if set&4 != 0 {
				cfg.Recorder = trace.NewRecorder(nil)
			}
			run := runObserved(t, cfg)
			label := fmt.Sprintf("%s checker=%v telemetry=%v recorder=%v", name, set&1 != 0, set&2 != 0, set&4 != 0)
			if plain == nil {
				plain = &run
			} else if !reflect.DeepEqual(run.memory, plain.memory) || run.stats != plain.stats || !reflect.DeepEqual(run.runs, plain.runs) {
				t.Fatalf("%s: run differs from the unobserved one:\n got %v %+v %v\nwant %v %+v %v",
					label, run.memory, run.stats, run.runs, plain.memory, plain.stats, plain.runs)
			}
			if set&1 != 0 {
				if checked == nil {
					checked = &run
				} else if !reflect.DeepEqual(run.violations, checked.violations) {
					t.Fatalf("%s: violations\n got %v\nwant %v", label, run.violations, checked.violations)
				}
			}
			if set&4 == 0 {
				continue
			}
			if recorded == nil {
				recorded = &run
			} else if !reflect.DeepEqual(run.trace, recorded.trace) {
				t.Fatalf("%s: recorded trace differs from the one recorded with neither the sanitizer nor telemetry", label)
			}
		}
		t.Logf("%s: %d violations, %d support tasks; %+v", name, len(checked.violations), recorded.trace.SupportTasks(), plain.stats)
		if base.Backend == BackendDeferred && (len(checked.violations) == 0 || plain.stats.InlineRuns == 0) {
			t.Fatalf("%s: no premature read reported or no inline run: the test lost its subject", name)
		}
	}
}

// TestObserverSeam pins the seam in the import graph: observe.go is the only
// file of the package that reaches the sanitizer, pprof or runtime/trace;
// telemetry and trace are also imported by core.go (Config's field types)
// and telemetry.go (the exporter's snapshot); and nothing here looks up an
// ISA opcode — the recorder charges its own. Outside observe.go no file names
// an observer's feature pointer either: the pipeline calls hooks, not
// features.
func TestObserverSeam(t *testing.T) {
	allowed := map[string][]string{
		"dtt/internal/sanitize":  {"observe.go"},
		"runtime/pprof":          {"observe.go"},
		"runtime/trace":          {"observe.go"},
		"dtt/internal/telemetry": {"observe.go", "core.go", "telemetry.go"},
		"dtt/internal/trace":     {"observe.go", "core.go", "telemetry.go"},
		"dtt/internal/isa":       nil,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if files, ok := allowed[path]; ok && !slices.Contains(files, name) {
				t.Errorf("%s imports %s; only %v may", name, path, files)
			}
		}
		if name == "observe.go" {
			continue
		}
		if m := featureField.Find(src); m != nil {
			t.Errorf("%s reaches %s past the observer hooks", name, m)
		}
	}
}

var featureField = regexp.MustCompile(`\bobs\.(check|tel|rec)\b`)

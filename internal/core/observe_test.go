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
	executed   []int64
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
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	in, out, sum := rt.NewRegion("in", 8), rt.NewRegion("out", 8), rt.NewRegion("sum", 2)
	double := rt.Register("double", func(tg Trigger) {
		rt.System().Compute(3)
		out.Store(tg.Index, 2*tg.Region.Load(tg.Index))
	})
	total := rt.Register("total", func(tg Trigger) { sum.Store(1, sum.Load(1)+tg.Region.Load(tg.Index)) })
	echo := rt.Register("echo", func(tg Trigger) { sum.TUpdate(0, UpdAdd, tg.Region.Load(tg.Index)) })
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

	run := observedRun{stats: rt.Stats(), violations: rt.Violations()}
	for _, r := range []*Region{in, out, sum} {
		run.memory = append(run.memory, r.Snapshot())
	}
	for _, id := range []ThreadID{double, total, echo} {
		run.executed = append(run.executed, rt.Executed(id))
	}
	if cfg.Recorder != nil {
		if run.trace, err = cfg.Recorder.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// TestObserversCompose: the sanitizer, telemetry and the recorder observe the
// pipeline and decide nothing in it, so every subset of them leaves the same
// run behind — memory, Stats and per-thread Executed — on the deferred backend
// and under three schedules. Every subset with the sanitizer reports the same
// violations; every subset with the recorder records the same task DAG; and
// when both are attached each violation is charged to the same task, while a
// trace recorded without the sanitizer carries none.
func TestObserversCompose(t *testing.T) {
	for _, base := range []Config{
		{Backend: BackendDeferred},
		{Backend: BackendSeeded, SchedSeed: 0},
		{Backend: BackendSeeded, SchedSeed: 7},
		{Backend: BackendSeeded, SchedSeed: 12345},
	} {
		name := fmt.Sprintf("%v/seed%d", base.Backend, base.SchedSeed)
		var plain, checked, recorded, both *observedRun
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
			} else if !reflect.DeepEqual(run.memory, plain.memory) || run.stats != plain.stats || !reflect.DeepEqual(run.executed, plain.executed) {
				t.Fatalf("%s: run differs from the unobserved one:\n got %v %+v %v\nwant %v %+v %v",
					label, run.memory, run.stats, run.executed, plain.memory, plain.stats, plain.executed)
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
			switch charged := run.trace.Violations(); {
			case set&1 == 0 && charged != 0:
				t.Fatalf("%s: %d violations charged to the trace with the sanitizer off", label, charged)
			case set&1 != 0 && charged != int64(len(run.violations)):
				t.Fatalf("%s: %d violations charged to the trace, %d reported", label, charged, len(run.violations))
			}
			if set&1 != 0 {
				if both != nil && !reflect.DeepEqual(run.trace, both.trace) {
					t.Fatalf("%s: the violations land on other tasks than with telemetry %v", label, set&2 == 0)
				}
				both = &run
			}
			if recorded == nil {
				recorded = &run
			} else if !sameDAG(run.trace, recorded.trace) {
				t.Fatalf("%s: recorded trace differs", label)
			}
		}
		t.Logf("%s: %d violations, %d support tasks; %+v", name, len(checked.violations), recorded.trace.SupportTasks(), plain.stats)
		if base.Backend == BackendDeferred && (len(checked.violations) == 0 || plain.stats.InlineRuns == 0) {
			t.Fatalf("%s: no premature read reported or no inline run: the test lost its subject", name)
		}
	}
}

// sameDAG reports whether two traces have the same tasks, dependencies and
// per-task counts, violations aside.
func sameDAG(a, b *trace.Trace) bool {
	if len(a.Tasks) != len(b.Tasks) || !reflect.DeepEqual(a.Main, b.Main) {
		return false
	}
	for i := range a.Tasks {
		x, y := *a.Tasks[i], *b.Tasks[i]
		x.Violations, y.Violations = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
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

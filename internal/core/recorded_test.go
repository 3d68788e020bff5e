package core

import (
	"reflect"
	"slices"
	"testing"

	"dtt/internal/mem"
	"dtt/internal/sim"
	"dtt/internal/trace"
)

func newRecorded(t *testing.T) (*Runtime, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(nil)
	rt := newRuntime(t, Config{Recorder: rec})
	return rt, rec
}

func TestRecordedProducesSupportTasks(t *testing.T) {
	rt, rec := newRecorded(t)
	data := rt.NewRegion("data", 4)
	id := rt.Register("sup", func(tg Trigger) {
		rt.System().Compute(100)
	})
	rt.Attach(id, data, 0, 4)

	rt.System().Compute(10)
	data.TStore(0, 1)
	data.TStore(1, 2)
	rt.Wait(id)
	rt.System().Compute(5)

	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.SupportTasks(); got != 2 {
		t.Fatalf("support tasks = %d, want 2", got)
	}
	var supportOps int64
	for _, task := range tr.Tasks {
		if task.Kind == trace.KindSupport {
			supportOps += task.Ops
			if len(task.Deps) != 1 {
				t.Fatalf("support task deps = %v, want exactly one release edge", task.Deps)
			}
		}
	}
	if supportOps != 200 {
		t.Fatalf("support ops = %d, want 200", supportOps)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordedSilentStoreAddsNoTask(t *testing.T) {
	rt, rec := newRecorded(t)
	data := rt.NewRegion("data", 1)
	id := rt.Register("sup", func(Trigger) { rt.System().Compute(50) })
	rt.Attach(id, data, 0, 1)

	data.TStore(0, 9)
	rt.Wait(id)
	data.TStore(0, 9) // silent
	rt.Wait(id)

	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.SupportTasks(); got != 1 {
		t.Fatalf("support tasks = %d, want 1 (silent store adds none)", got)
	}
	// The silent tstore is still charged as an instruction.
	var tstores int64
	for _, task := range tr.Tasks {
		tstores += task.TStores
	}
	if tstores != 2 {
		t.Fatalf("tstores in trace = %d, want 2", tstores)
	}
}

func TestRecordedTraceRunsOnSimulator(t *testing.T) {
	rt, rec := newRecorded(t)
	data := rt.NewRegion("data", 8)
	id := rt.Register("sup", func(Trigger) { rt.System().Compute(1000) })
	rt.Attach(id, data, 0, 8)

	for iter := 0; iter < 10; iter++ {
		rt.System().Compute(500)
		for i := 0; i < 8; i++ {
			data.TStore(i, uint64(iter/5)+1) // changes only at iter 0 and 5
		}
		rt.Wait(id)
		rt.System().Compute(200)
	}

	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr, sim.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("cycles = %v", res.Cycles)
	}
	if res.SupportTasks != 16 { // 8 words x 2 changing iterations
		t.Fatalf("support tasks = %d, want 16", res.SupportTasks)
	}
}

func TestRecordedDTTBeatsBaselineWhenRedundant(t *testing.T) {
	// End-to-end shape check: a loop whose expensive phase depends on
	// rarely-changing data must be faster under DTT than recomputing
	// every iteration.
	const iters = 20
	runDTT := func() float64 {
		rec := trace.NewRecorder(nil)
		rt := newRuntime(t, Config{Recorder: rec})
		data := rt.NewRegion("data", 1)
		id := rt.Register("heavy", func(Trigger) { rt.System().Compute(10000) })
		rt.Attach(id, data, 0, 1)
		for i := 0; i < iters; i++ {
			rt.System().Compute(100)
			data.TStore(0, uint64(i/10)) // changes twice over the run
			rt.Wait(id)
		}
		tr, err := rec.Finish()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, sim.Default())
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	runBaseline := func() float64 {
		sys := mem.NewSystem()
		rec := trace.NewRecorder(nil)
		sys.AttachProbe(rec)
		for i := 0; i < iters; i++ {
			sys.Compute(100)
			sys.Compute(10000) // recomputed every iteration
		}
		tr, err := rec.Finish()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, sim.Default())
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	dtt, base := runDTT(), runBaseline()
	if !(dtt < base/3) {
		t.Fatalf("DTT %v cycles vs baseline %v: expected large win from 90%% redundancy", dtt, base)
	}
}

func TestRecordedCascadeReleaseEdges(t *testing.T) {
	rt, rec := newRecorded(t)
	src := rt.NewRegion("src", 1)
	mid := rt.NewRegion("mid", 1)
	first := rt.Register("first", func(tg Trigger) {
		rt.System().Compute(10)
		mid.TStore(0, tg.Region.Load(tg.Index)+1)
	})
	second := rt.Register("second", func(Trigger) { rt.System().Compute(20) })
	rt.Attach(first, src, 0, 1)
	rt.Attach(second, mid, 0, 1)

	src.TStore(0, 5)
	rt.Barrier()
	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr.SupportTasks() != 2 {
		t.Fatalf("support tasks = %d, want 2", tr.SupportTasks())
	}
	// The second support task must be released by the first (the cascade
	// edge), not by a main segment.
	var firstID, secondID trace.TaskID = -1, -1
	for _, task := range tr.Tasks {
		switch task.Label {
		case "first":
			firstID = task.ID
		case "second":
			secondID = task.ID
		}
	}
	sec := tr.Task(secondID)
	if len(sec.Deps) != 1 || sec.Deps[0] != firstID {
		t.Fatalf("cascade release edge wrong: second deps = %v, first = %d", sec.Deps, firstID)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordedUnderSchedule: a recorder composes with a schedule. On the
// equivalence workload under BackendSeeded the trace is valid, has one support
// task per queue-dispatched instance, replays identically from one seed, and
// orders its support tasks differently under another.
func TestRecordedUnderSchedule(t *testing.T) {
	record := func(seed uint64) *trace.Trace {
		rec := trace.NewRecorder(nil)
		run := runEquivalenceWorkload(t, Config{Backend: BackendSeeded, SchedSeed: seed, Recorder: rec})
		tr, err := rec.Finish()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := int64(tr.SupportTasks()); got == 0 || got != run.stats.Executed {
			t.Fatalf("seed %d: %d support tasks in the trace, Stats.Executed = %d", seed, got, run.stats.Executed)
		}
		return tr
	}
	order := func(tr *trace.Trace) (labels []string) {
		for _, task := range tr.Tasks {
			if task.Kind == trace.KindSupport {
				labels = append(labels, task.Label)
			}
		}
		return labels
	}
	a, b, c := record(3), record(3), record(11)
	if !reflect.DeepEqual(a.Tasks, b.Tasks) {
		t.Fatalf("two recorded runs of seed 3 differ:\n%v\n%v", order(a), order(b))
	}
	if slices.Equal(order(a), order(c)) {
		t.Fatalf("seeds 3 and 11 recorded the same support-task order: %v", order(a))
	}
}

// TestRecordedNestedDispatch: under a schedule a body's store is a preemption
// point, so an instance can run nested inside another's body and at a store of
// the main thread, outside any Wait. Each is still one support task with its
// release edge, every one of them is joined by the next synchronisation
// point, and no body is mistaken for a failed run.
func TestRecordedNestedDispatch(t *testing.T) {
	const words = 4
	nested := false
	for seed := uint64(0); seed < 8; seed++ {
		rec := trace.NewRecorder(nil)
		rt := newRuntime(t, Config{Backend: BackendSeeded, SchedSeed: seed, Recorder: rec})
		src, mid := rt.NewRegion("src", words), rt.NewRegion("mid", words)
		depth := 0
		first := rt.Register("first", func(tg Trigger) {
			depth++
			mid.TStore(tg.Index, tg.Region.Load(tg.Index)+1)
			depth--
		})
		second := rt.Register("second", func(Trigger) { nested = nested || depth > 0 })
		rt.Attach(first, src, 0, words)
		rt.Attach(second, mid, 0, words)
		for i := 0; i < words; i++ {
			src.TStore(i, seed+5)
		}
		rt.Barrier()
		st := rt.Stats()
		rt.Close()
		tr, err := rec.Finish()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.Executed != 2*words || st.FailedRuns != 0 || tr.SupportTasks() != 2*words {
			t.Fatalf("seed %d: Executed %d FailedRuns %d, %d support tasks; want %d, 0, %d", seed, st.Executed, st.FailedRuns, tr.SupportTasks(), 2*words, 2*words)
		}
		joined := map[trace.TaskID]bool{}
		for _, id := range tr.Main {
			for _, d := range tr.Task(id).Deps {
				joined[d] = true
			}
		}
		for _, task := range tr.Tasks {
			if task.Kind != trace.KindSupport {
				continue
			}
			if len(task.Deps) != 1 || (task.Label == "second" && tr.Task(task.Deps[0]).Label != "first") {
				t.Fatalf("seed %d: support task %d (%s) has release edges %v", seed, task.ID, task.Label, task.Deps)
			}
			if !joined[task.ID] {
				t.Fatalf("seed %d: support task %d (%s) ran at a preemption point and no Wait or Barrier joins it", seed, task.ID, task.Label)
			}
		}
	}
	if !nested {
		t.Fatal("no seed dispatched an instance inside another's body: the test lost its subject")
	}
}

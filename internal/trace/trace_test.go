package trace

import (
	"testing"

	"dtt/internal/mem"
)

func TestRecorderMainOnly(t *testing.T) {
	r := NewRecorder(nil)
	r.OnCompute(100)
	r.OnLoad(0x40, 0)
	r.OnStore(0x48, 0, 1, false)
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 1 || len(tr.Main) != 1 {
		t.Fatalf("tasks=%d main=%d, want 1/1", len(tr.Tasks), len(tr.Main))
	}
	m := tr.Task(tr.Main[0])
	if m.Ops != 100 || m.TotalLoads() != 1 || m.Stores != 1 {
		t.Fatalf("main task mis-charged: %+v", m)
	}
	if m.Instructions() != 102 {
		t.Fatalf("Instructions = %d, want 102", m.Instructions())
	}
}

func TestRecorderCutAndSupport(t *testing.T) {
	r := NewRecorder(nil)
	r.OnCompute(10)
	release := r.CutMain()
	r.OnCompute(5) // lands in the new main segment

	r.BeginSupport("sup", release)
	r.OnCompute(7)
	r.OnLoad(0x100, 0)
	sup := r.EndSupport()

	r.OnCompute(3) // back on main
	r.Join()
	r.OnCompute(1)

	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.SupportTasks(); got != 1 {
		t.Fatalf("SupportTasks = %d", got)
	}
	st := tr.Task(sup)
	if st.Kind != KindSupport || st.Ops != 7 || st.TotalLoads() != 1 {
		t.Fatalf("support task mis-charged: %+v", st)
	}
	if len(st.Deps) != 1 || st.Deps[0] != release {
		t.Fatalf("support deps = %v, want [%d]", st.Deps, release)
	}
	// Main chain: seg0(10 ops) -> seg1(5+3 ops) -> seg2(1 op).
	if len(tr.Main) != 3 {
		t.Fatalf("main chain length %d, want 3", len(tr.Main))
	}
	seg1 := tr.Task(tr.Main[1])
	if seg1.Ops != 8 {
		t.Fatalf("middle segment ops = %d, want 8", seg1.Ops)
	}
	last := tr.Task(tr.Main[2])
	// The post-join segment depends on the previous main segment and the
	// support task ended before the Join.
	if len(last.Deps) != 2 || last.Deps[0] != tr.Main[1] || last.Deps[1] != sup {
		t.Fatalf("post-join deps = %v, want [%d %d]", last.Deps, tr.Main[1], sup)
	}
}

func TestRecorderTStoreReclassification(t *testing.T) {
	r := NewRecorder(nil)
	r.OnStore(0x40, 0, 1, false)
	r.NoteTStore()
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Task(tr.Main[0])
	if m.Stores != 0 || m.TStores != 1 {
		t.Fatalf("tstore not reclassified: stores=%d tstores=%d", m.Stores, m.TStores)
	}
}

func TestRecorderMgmtCharge(t *testing.T) {
	r := NewRecorder(nil)
	r.NoteSpawn()  // tspawn: 4
	r.NoteCancel() // tcancel: 4
	r.Wait()       // twait: 2, then a Join
	tr, _ := r.Finish()
	if got := tr.Task(tr.Main[0]).Mgmt; got != 10 {
		t.Fatalf("mgmt charged %d, want 10", got)
	}
	if len(tr.Main) != 2 {
		t.Fatalf("Wait did not join: main chain %v", tr.Main)
	}
}

func TestRecorderCacheClassification(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchy())
	r := NewRecorder(h)
	r.OnLoad(0x4000, 0) // cold: memory
	r.OnLoad(0x4000, 0) // warm: L1
	tr, _ := r.Finish()
	m := tr.Task(tr.Main[0])
	if m.Loads[mem.LevelMem] != 1 || m.Loads[mem.LevelL1] != 1 {
		t.Fatalf("load classification wrong: %v", m.Loads)
	}
}

func TestRecorderPanicsOnMisuse(t *testing.T) {
	cases := map[string]func(*Recorder){
		"end-without-begin":   func(r *Recorder) { r.EndSupport() },
		"cut-during-support":  func(r *Recorder) { r.BeginSupport("a", NoTask); r.CutMain() },
		"join-during-support": func(r *Recorder) { r.BeginSupport("a", NoTask); r.Join() },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f(NewRecorder(nil))
		}()
	}
}

// TestRecorderNestedSupport: a support task opened inside another's body (a
// scheduled dispatch at a store in that body) takes the probe events and the
// cascade release edges until it ends, and then the outer task resumes.
func TestRecorderNestedSupport(t *testing.T) {
	r := NewRecorder(nil)
	r.BeginSupport("outer", r.ReleasePoint())
	r.OnCompute(1)
	outer := r.ReleasePoint()
	r.BeginSupport("inner", outer)
	r.OnCompute(10)
	if got := r.ReleasePoint(); got == outer {
		t.Fatalf("a trigger inside the nested task is released by the outer task %d", got)
	}
	inner := r.EndSupport()
	r.OnCompute(100)
	if got := r.ReleasePoint(); got != outer {
		t.Fatalf("after the nested task ended the release point is %d, want the outer task %d", got, outer)
	}
	if got := r.EndSupport(); got != outer {
		t.Fatalf("EndSupport = %d, want the outer task %d", got, outer)
	}
	r.Join()
	r.Join()
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The first Join takes both tasks in the order they ended; the second has
	// none left to take.
	j1, j2 := tr.Task(tr.Main[len(tr.Main)-2]), tr.Task(tr.Main[len(tr.Main)-1])
	if len(j1.Deps) != 3 || j1.Deps[1] != inner || j1.Deps[2] != outer || len(j2.Deps) != 1 {
		t.Fatalf("join deps = %v then %v, want [_ %d %d] then the closed segment alone", j1.Deps, j2.Deps, inner, outer)
	}
	if o, i := tr.Task(outer), tr.Task(inner); o.Ops != 101 || i.Ops != 10 || len(i.Deps) != 1 || i.Deps[0] != outer {
		t.Fatalf("outer ops %d (want 101), inner ops %d (want 10), inner deps %v (want [%d])", o.Ops, i.Ops, i.Deps, outer)
	}
}

func TestFinishRejectsOpenSupport(t *testing.T) {
	r := NewRecorder(nil)
	r.BeginSupport("open", NoTask)
	if _, err := r.Finish(); err == nil {
		t.Fatalf("Finish with open support task succeeded")
	}
}

func TestTraceValidate(t *testing.T) {
	bad := &Trace{
		Tasks: []*Task{{ID: 0, Kind: KindMain, Deps: []TaskID{1}}, {ID: 1, Kind: KindMain}},
		Main:  []TaskID{0},
	}
	if err := bad.Validate(); err == nil {
		t.Fatalf("forward dependency accepted")
	}
	empty := &Trace{Tasks: nil, Main: nil}
	if err := empty.Validate(); err == nil {
		t.Fatalf("empty main chain accepted")
	}
}

func TestTraceInstructionsSums(t *testing.T) {
	r := NewRecorder(nil)
	r.OnCompute(10)
	rel := r.CutMain()
	r.BeginSupport("s", rel)
	r.OnCompute(20)
	r.EndSupport()
	r.Join()
	tr, _ := r.Finish()
	if tr.Instructions() != 30 {
		t.Fatalf("Instructions = %d, want 30", tr.Instructions())
	}
}

func TestSerializePreservesWork(t *testing.T) {
	r := NewRecorder(nil)
	r.OnCompute(10)
	rel := r.CutMain()
	r.BeginSupport("s", rel)
	r.OnCompute(20)
	r.OnLoad(0x40, 0)
	r.EndSupport()
	r.Join()
	r.OnCompute(5)
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	flat := tr.Serialize()
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
	if flat.Instructions() != tr.Instructions() {
		t.Fatalf("Serialize changed work: %d -> %d", tr.Instructions(), flat.Instructions())
	}
	if flat.SupportTasks() != 0 {
		t.Fatalf("Serialize left %d support tasks", flat.SupportTasks())
	}
	if len(flat.Main) != len(flat.Tasks) {
		t.Fatalf("main chain %d != tasks %d", len(flat.Main), len(flat.Tasks))
	}
	// Each task depends only on its predecessor.
	for i, task := range flat.Tasks {
		if i == 0 {
			if len(task.Deps) != 0 {
				t.Fatalf("first task has deps %v", task.Deps)
			}
			continue
		}
		if len(task.Deps) != 1 || task.Deps[0] != TaskID(i-1) {
			t.Fatalf("task %d deps = %v", i, task.Deps)
		}
	}
	// The original trace must be untouched.
	if tr.SupportTasks() != 1 {
		t.Fatalf("Serialize mutated its input")
	}
}

func TestKindString(t *testing.T) {
	if KindMain.String() != "main" || KindSupport.String() != "support" {
		t.Fatalf("kind names wrong")
	}
}

package trace

import (
	"fmt"

	"dtt/internal/isa"
	"dtt/internal/mem"
)

// Recorder builds a Trace from an instrumented run. It implements mem.Probe:
// attach it to the workload's mem.System and every load, store and compute
// event is charged to the currently open task. The DTT runtime drives the
// structural calls (ReleasePoint, BeginSupport, EndSupport, Wait, Barrier)
// and charges its management instructions (NoteSpawn, NoteCancel).
//
// A Recorder may optionally classify loads through a cache hierarchy; with a
// nil hierarchy every load is charged as an L1 hit, which is useful in unit
// tests and for pure instruction-count studies.
type Recorder struct {
	hier  *mem.Hierarchy
	tasks []*Task
	main  []TaskID
	// cur is the task receiving probe events: the innermost open support
	// task while one is being executed, otherwise the open main segment.
	cur     *Task
	curMain *Task
	// open are the support tasks being executed, innermost last. It is deeper
	// than one only under a schedule, which may dispatch an instance at a
	// store inside another's body.
	open []*Task
	// ended are the support tasks closed since the last Join, which the next
	// one takes, whichever drain ran them.
	ended []TaskID
}

// NewRecorder returns a Recorder with an open initial main segment.
// hier may be nil to charge all loads as L1 hits.
func NewRecorder(hier *mem.Hierarchy) *Recorder {
	r := &Recorder{hier: hier}
	r.curMain = r.newTask(KindMain, "main", nil)
	r.main = append(r.main, r.curMain.ID)
	r.cur = r.curMain
	return r
}

func (r *Recorder) newTask(k Kind, label string, deps []TaskID) *Task {
	t := &Task{ID: TaskID(len(r.tasks)), Kind: k, Label: label, Deps: deps}
	r.tasks = append(r.tasks, t)
	return t
}

// OnLoad charges a load to the current task, classified by the hierarchy.
func (r *Recorder) OnLoad(addr mem.Addr, _ mem.Word) {
	lv := mem.LevelL1
	if r.hier != nil {
		lv = r.hier.Access(addr, false)
	}
	r.cur.Loads[lv]++
}

// OnStore charges a store to the current task.
func (r *Recorder) OnStore(addr mem.Addr, _, _ mem.Word, _ bool) {
	if r.hier != nil {
		r.hier.Access(addr, true)
	}
	r.cur.Stores++
}

// OnCompute charges n ALU operations to the current task.
func (r *Recorder) OnCompute(n int64) { r.cur.Ops += n }

// NoteTStore reclassifies the store the runtime just performed as a
// triggering store, moving it from the plain-store to the tstore counter.
func (r *Recorder) NoteTStore() {
	if r.cur.Stores > 0 {
		r.cur.Stores--
	}
	r.cur.TStores++
}

// NoteSpawn and NoteCancel charge a tspawn or a tcancel, at its ISA latency,
// to the current task: the runtime calls them at Attach and Cancel.
func (r *Recorder) NoteSpawn()  { r.noteMgmt(isa.OpTSpawn) }
func (r *Recorder) NoteCancel() { r.noteMgmt(isa.OpTCancel) }

// Wait and Barrier charge a twait or a tbarrier and then Join: the runtime
// calls them once the synchronisation point has been reached.
func (r *Recorder) Wait()    { r.noteMgmt(isa.OpTWait); r.Join() }
func (r *Recorder) Barrier() { r.noteMgmt(isa.OpTBarrier); r.Join() }

func (r *Recorder) noteMgmt(op isa.Opcode) {
	ins, _ := isa.Lookup(op)
	r.cur.Mgmt += int64(ins.Latency)
}

// CutMain closes the open main segment and opens a new one that depends on
// it. The runtime calls this when a trigger fires, so support tasks can be
// released at the exact point in main-thread progress where their data
// changed. It returns the ID of the segment that was closed.
func (r *Recorder) CutMain() TaskID {
	if len(r.open) > 0 {
		panic("trace: CutMain while a support task is open")
	}
	closed := r.curMain
	next := r.newTask(KindMain, "main", []TaskID{closed.ID})
	r.main = append(r.main, next.ID)
	r.curMain = next
	r.cur = next
	return closed.ID
}

// ReleasePoint returns the task a trigger fired just now should be released
// by. On the main thread this cuts the open main segment (the trigger marks
// an exact point in main-thread progress); inside a support task — a
// cascading trigger — it is the innermost open support task itself, uncut.
func (r *Recorder) ReleasePoint() TaskID {
	if n := len(r.open); n > 0 {
		return r.open[n-1].ID
	}
	return r.CutMain()
}

// BeginSupport opens a support task labelled label, released by task
// release (NoTask for no release edge). Probe events are charged to it
// until EndSupport, or until a nested BeginSupport: a task opened inside
// another's body suspends the outer one, which resumes when the inner ends.
func (r *Recorder) BeginSupport(label string, release TaskID) {
	var deps []TaskID
	if release != NoTask {
		deps = []TaskID{release}
	}
	r.cur = r.newTask(KindSupport, label, deps)
	r.open = append(r.open, r.cur)
}

// EndSupport closes the innermost open support task and returns its ID.
func (r *Recorder) EndSupport() TaskID {
	n := len(r.open)
	if n == 0 {
		panic("trace: EndSupport without BeginSupport")
	}
	id := r.open[n-1].ID
	r.open = r.open[:n-1]
	r.ended = append(r.ended, id)
	r.cur = r.curMain
	if n > 1 {
		r.cur = r.open[n-2]
	}
	return id
}

// Join closes the open main segment and opens a new one that depends on the
// closed segment and on every support task ended since the last Join, in the
// order they ended. Wait and Barrier call it.
func (r *Recorder) Join() {
	if len(r.open) > 0 {
		panic("trace: Join while a support task is open")
	}
	closed := r.curMain
	all := make([]TaskID, 0, len(r.ended)+1)
	all = append(all, closed.ID)
	all = append(all, r.ended...)
	r.ended = r.ended[:0]
	next := r.newTask(KindMain, "main", all)
	r.main = append(r.main, next.ID)
	r.curMain = next
	r.cur = next
}

// Finish validates and returns the recorded trace. The recorder must not be
// used afterwards.
func (r *Recorder) Finish() (*Trace, error) {
	if len(r.open) > 0 {
		return nil, fmt.Errorf("trace: Finish with an open support task")
	}
	tr := &Trace{Tasks: r.tasks, Main: r.main}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

var _ mem.Probe = (*Recorder)(nil)

// Package trace records the dynamic task graph of an instrumented workload
// run. The main thread is a chain of segments, cut wherever a trigger fires
// or a synchronisation point joins support threads back in; each executed
// support-thread instance is a task released by the main segment in which
// its (last) trigger fired. The timing simulator in internal/sim schedules
// this DAG onto an SMT machine model.
package trace

import (
	"fmt"

	"dtt/internal/mem"
)

// TaskID indexes a task within its Trace.
type TaskID int

// NoTask is the zero dependency (no release edge).
const NoTask TaskID = -1

// Kind distinguishes main-thread segments from support-thread instances.
type Kind int

// Task kinds.
const (
	KindMain Kind = iota
	KindSupport
)

// String returns the kind name.
func (k Kind) String() string {
	if k == KindMain {
		return "main"
	}
	return "support"
}

// Task aggregates the dynamic work of one schedulable unit.
type Task struct {
	ID    TaskID
	Kind  Kind
	Label string

	// Ops counts abstract ALU operations.
	Ops int64
	// Loads counts loads by the hierarchy level that satisfied them;
	// index with mem.LevelL1..mem.LevelMem.
	Loads [mem.LevelMem + 1]int64
	// Stores counts ordinary stores.
	Stores int64
	// TStores counts triggering stores (charged extra front-end latency).
	TStores int64
	// Mgmt counts DTT management/synchronisation instructions.
	Mgmt int64

	// Deps are the tasks that must complete before this one may start.
	Deps []TaskID
}

// Instructions returns the committed dynamic instruction count of the task.
func (t *Task) Instructions() int64 {
	var loads int64
	for _, n := range t.Loads {
		loads += n
	}
	return t.Ops + loads + t.Stores + t.TStores + t.Mgmt
}

// TotalLoads returns the load count across all levels.
func (t *Task) TotalLoads() int64 {
	var n int64
	for _, v := range t.Loads {
		n += v
	}
	return n
}

// Trace is a complete recorded run.
type Trace struct {
	Tasks []*Task
	// Main holds the main-chain task IDs in program order. Each main task
	// implicitly depends on its predecessor in this chain (the recorder
	// adds the edge explicitly as well).
	Main []TaskID
}

// Task returns the task with the given id.
func (tr *Trace) Task(id TaskID) *Task { return tr.Tasks[id] }

// Instructions returns the committed instruction count of the whole trace.
func (tr *Trace) Instructions() int64 {
	var n int64
	for _, t := range tr.Tasks {
		n += t.Instructions()
	}
	return n
}

// SupportTasks returns the number of support-thread instances in the trace.
func (tr *Trace) SupportTasks() int {
	n := 0
	for _, t := range tr.Tasks {
		if t.Kind == KindSupport {
			n++
		}
	}
	return n
}

// Serialize flattens the trace into a single main chain: every task, in
// creation order, becomes a main-chain segment depending only on its
// predecessor. Work that the DTT run skipped stays skipped, but nothing
// overlaps — this is the "redundancy elimination without parallelism"
// configuration of the paper's speedup decomposition. Creation order is
// program order for main segments and execution order for support
// instances, so the flattening is exactly what a one-context machine
// running the same program would do.
func (tr *Trace) Serialize() *Trace {
	out := &Trace{Tasks: make([]*Task, len(tr.Tasks)), Main: make([]TaskID, len(tr.Tasks))}
	for i, t := range tr.Tasks {
		c := *t
		c.Kind = KindMain
		c.ID = TaskID(i)
		if i == 0 {
			c.Deps = nil
		} else {
			c.Deps = []TaskID{TaskID(i - 1)}
		}
		out.Tasks[i] = &c
		out.Main[i] = c.ID
	}
	return out
}

// Validate checks structural invariants: dependency IDs in range, no
// forward (not-yet-created) dependencies, and a non-empty main chain.
func (tr *Trace) Validate() error {
	if len(tr.Main) == 0 {
		return fmt.Errorf("trace: empty main chain")
	}
	for _, t := range tr.Tasks {
		for _, d := range t.Deps {
			if d < 0 || int(d) >= len(tr.Tasks) {
				return fmt.Errorf("trace: task %d depends on out-of-range task %d", t.ID, d)
			}
			if d >= t.ID {
				return fmt.Errorf("trace: task %d depends on later task %d (cycle)", t.ID, d)
			}
		}
	}
	for i, id := range tr.Main {
		if tr.Tasks[id].Kind != KindMain {
			return fmt.Errorf("trace: main chain entry %d (task %d) is not a main task", i, id)
		}
	}
	return nil
}

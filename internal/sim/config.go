// Package sim is the timing substrate: a trace-driven multithreaded
// processor model that schedules the task DAG recorded by internal/trace
// onto a machine with a configurable number of cores and SMT contexts.
//
// It replaces the cycle-accurate SMT simulator the paper used. The model is
// a fluid processor-sharing approximation: each task needs a number of
// issue slots (instructions) and a number of stall cycles (load misses);
// contexts that are issuing share their core's issue bandwidth equally,
// while stalled contexts consume none — which is exactly the property that
// makes SMT attractive for data-triggered threads. Absolute cycle counts
// are approximate; relative comparisons (baseline vs DTT, context and
// queue-size sweeps) are the quantities the experiments report.
package sim

import (
	"fmt"

	"dtt/internal/isa"
	"dtt/internal/mem"
)

// Placement selects where support threads run.
type Placement int

const (
	// PlaceSameCore runs support threads on spare SMT contexts of the main
	// thread's core, sharing its issue bandwidth.
	PlaceSameCore Placement = iota
	// PlaceIdleCore prefers contexts on cores other than the main
	// thread's, falling back to same-core contexts when none are free.
	PlaceIdleCore
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case PlaceSameCore:
		return "same-core"
	case PlaceIdleCore:
		return "idle-core"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Config describes the simulated machine. The zero value is not usable;
// start from Default().
type Config struct {
	// Cores is the number of physical cores.
	Cores int
	// ContextsPerCore is the number of SMT hardware contexts per core.
	ContextsPerCore int
	// IssueWidth is a core's total issue bandwidth in instructions/cycle.
	IssueWidth int
	// CtxIssueWidth caps how much of the core's bandwidth a single context
	// can use, modelling per-thread fetch/rename limits.
	CtxIssueWidth int
	// MLP divides memory-level stall cycles, approximating overlapping
	// misses in an out-of-order window. 1 means fully blocking loads.
	MLP float64
	// Hier supplies the access latencies for classified loads.
	Hier mem.HierarchyConfig
	// Placement selects support-thread placement.
	Placement Placement
}

// Default returns the machine used by the experiments unless a sweep
// overrides a field: a 2-core, 4-context/core SMT processor, 8-wide core,
// 4-wide per context, modest memory-level parallelism.
func Default() Config {
	return Config{
		Cores:           2,
		ContextsPerCore: 4,
		IssueWidth:      8,
		CtxIssueWidth:   4,
		MLP:             4,
		Hier:            mem.DefaultHierarchy(),
		Placement:       PlaceSameCore,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: non-positive core count %d", c.Cores)
	case c.ContextsPerCore <= 0:
		return fmt.Errorf("sim: non-positive contexts per core %d", c.ContextsPerCore)
	case c.IssueWidth <= 0:
		return fmt.Errorf("sim: non-positive issue width %d", c.IssueWidth)
	case c.CtxIssueWidth <= 0 || c.CtxIssueWidth > c.IssueWidth:
		return fmt.Errorf("sim: per-context issue width %d out of (0, %d]", c.CtxIssueWidth, c.IssueWidth)
	case c.MLP < 1:
		return fmt.Errorf("sim: MLP %v below 1", c.MLP)
	}
	return nil
}

// Contexts returns the total number of hardware contexts.
func (c Config) Contexts() int { return c.Cores * c.ContextsPerCore }

// tstoreLat pulls the DTT triggering-store overhead from the ISA definition
// so the simulator and the ISA table can never disagree.
func tstoreLat() int64 {
	ins, _ := isa.Lookup(isa.OpTStoreW)
	return int64(ins.Latency)
}

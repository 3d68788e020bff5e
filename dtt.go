// Package dtt is a data-triggered threads runtime for Go — a library
// reproduction of "Data-triggered threads: Eliminating redundant
// computation" (Tseng & Tullsen, HPCA 2011).
//
// A data-triggered thread is computation attached to data rather than to
// control flow: it runs when a memory location changes, and — the paper's
// headline property — it does not run when a store rewrites the value
// already in memory. Programs whose expensive phases recompute results
// from rarely-changing inputs can skip that recomputation wholesale.
//
// # Programming model
//
//	rt, _ := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 2})
//	defer rt.Close()
//
//	data := rt.NewRegion("data", 1024)       // trigger-capable memory
//	thread := rt.Register("refresh", func(tg dtt.Trigger) {
//	        recompute(tg.Index)              // runs only when data changed
//	})
//	rt.Attach(thread, data, 0, 1024)         // arm the trigger range
//
//	data.TStore(i, v)                        // triggering store
//	rt.Wait(thread)                          // consume results safely
//
// A triggering store (TStore) compares the new value with memory. If equal
// it is silent: nothing runs. If different, one instance of each attached
// thread is enqueued, subject to duplicate squashing — re-triggering a
// pending instance is free, and the instance observes the latest values
// when it runs, exactly as the paper's hardware guarantees.
//
// The main thread may not read a support thread's outputs between a
// trigger and the matching Wait or Barrier; that is the paper's
// synchronisation discipline, enforced by convention here as there.
//
// There are two execution models. BackendImmediate executes support threads
// on a goroutine pool (real parallelism; use this in programs);
// BackendDeferred runs them inline at Wait, in FIFO order (pure redundancy
// elimination, deterministic, good for tests). The inline model takes two
// attachments: BackendSeeded is the same model under a schedule — instances
// dispatch at seed-chosen points and in seed-chosen order, so any
// interleaving it explores replays exactly from its Config.SchedSeed — and a
// Config.Recorder captures the run's task DAG for the timing simulator in
// internal/sim (used by the paper's experiments — see cmd/dttbench).
//
// # Protocol sanitizer
//
// Setting Config.Checker to CheckStrict turns on a happens-before checker
// that watches every region access and protocol operation and reports
// violations of the synchronisation discipline — a main-thread read or
// write of a support thread's output with no intervening Wait/Barrier, a
// Cancel racing a running instance, or unsynchronised cross-thread access.
// Violations carry the thread, region and word offset involved; collect
// them with Runtime.Violations or fail fast with Runtime.CheckErr.
package dtt

import (
	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/queue"
)

// Runtime is a data-triggered threads runtime. See core.Runtime.
type Runtime = core.Runtime

// Config configures New. See core.Config.
type Config = core.Config

// Region is trigger-capable memory. See core.Region.
type Region = core.Region

// Trigger tells a support thread why it is running. See core.Trigger.
type Trigger = core.Trigger

// ThreadFunc is a support-thread body.
type ThreadFunc = core.ThreadFunc

// ThreadID identifies a registered support thread.
type ThreadID = core.ThreadID

// Backend selects the execution model.
type Backend = core.Backend

// Word is the machine word stored in regions; float64 data is stored as
// its IEEE-754 bit pattern via the *F accessors.
type Word = mem.Word

// Backends.
const (
	BackendDeferred  = core.BackendDeferred
	BackendImmediate = core.BackendImmediate
	BackendSeeded    = core.BackendSeeded
)

// UpdateOp is a commutative update operation for Region.TUpdate and
// Region.TUpdateBatch. See mem.UpdateOp.
type UpdateOp = core.UpdateOp

// Commutative update operations. Min and max compare words as unsigned
// integers; set is last-writer-wins.
const (
	UpdAdd = core.UpdAdd
	UpdMin = core.UpdMin
	UpdMax = core.UpdMax
	UpdAnd = core.UpdAnd
	UpdOr  = core.UpdOr
	UpdSet = core.UpdSet
)

// CheckMode selects the protocol sanitizer level in Config.Checker.
type CheckMode = core.CheckMode

// Sanitizer modes.
const (
	// CheckOff disables the sanitizer (the default): no per-access
	// bookkeeping, full fast-path performance.
	CheckOff = core.CheckOff
	// CheckStrict records happens-before clocks on every protocol
	// operation and checks every region load and changing store.
	CheckStrict = core.CheckStrict
)

// Violation is one sanitizer finding. See sanitize.Violation.
type Violation = core.Violation

// Status is a thread's state in the thread queue status table.
type Status = queue.Status

// Thread states reported by Runtime.Status.
const (
	StatusIdle    = queue.StatusIdle
	StatusPending = queue.StatusPending
	StatusRunning = queue.StatusRunning
)

// Stats is a snapshot of runtime trigger activity. See core.Stats.
type Stats = core.Stats

// GuardSet packages the one-trigger-word-per-computation idiom for inputs
// too scattered to attach triggers to directly. See core.GuardSet.
type GuardSet = core.GuardSet

// New builds a runtime from cfg.
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// NewGuardSet allocates n guard words in rt's address space.
func NewGuardSet(rt *Runtime, name string, n int) *GuardSet {
	return core.NewGuardSet(rt, name, n)
}

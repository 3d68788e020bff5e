package queue

import "fmt"

// Status is a thread's state in the thread queue status table.
type Status int

// TQST states. A thread may have several in-flight instances; the table
// tracks instance counts and reports the "most active" state, which is what
// twait spins on.
const (
	// StatusIdle means no pending or running instance.
	StatusIdle Status = iota
	// StatusPending means at least one instance is queued but not started.
	StatusPending
	// StatusRunning means at least one instance is executing.
	StatusRunning
	// StatusFailed means no pending or running instance and the most
	// recently completed instance panicked. A subsequent successful
	// instance returns the thread to StatusIdle.
	StatusFailed
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusFailed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

type tqstEntry struct {
	pending  int
	running  int
	executed int64
	failed   int64
	// lastFailed remembers whether the most recent completed instance
	// panicked; it colours the idle state as StatusFailed until a
	// successful instance clears it.
	lastFailed bool
}

// TQST is the thread queue status table. twait consults it to decide
// whether the main thread may proceed past a consumption point. Entries are
// a dense slice indexed by ThreadID — IDs are small integers assigned in
// registration order — and a global busy count makes the tbarrier predicate
// AllQuiet O(1) rather than a table scan.
type TQST struct {
	entries []tqstEntry //dtt:guards dispatchShard.mu
	// busy is the total pending+running instances across all threads.
	busy int //dtt:guards dispatchShard.mu
}

// NewTQST returns an empty status table.
func NewTQST() *TQST { return &TQST{} }

// entry returns id's slot, growing the table on first sight of id. The
// in-range load is split from the grow-and-validate path so entry inlines
// into MarkPending and friends — these sit inside every enqueue's shard
// critical section.
func (t *TQST) entry(id ThreadID) *tqstEntry {
	if uint64(id) < uint64(len(t.entries)) {
		return &t.entries[id]
	}
	return t.entryGrow(id)
}

//go:noinline
func (t *TQST) entryGrow(id ThreadID) *tqstEntry {
	if id < 0 {
		panic(fmt.Sprintf("queue: TQST access with negative thread id %d", id))
	}
	grown := make([]tqstEntry, int(id)+1)
	copy(grown, t.entries)
	t.entries = grown
	return &t.entries[id]
}

// MarkPending records that an instance of id entered the thread queue.
func (t *TQST) MarkPending(id ThreadID) {
	t.entry(id).pending++
	t.busy++
}

// MarkRunning records that a pending instance of id started executing.
// It panics if no instance is pending: that indicates a runtime bug, not a
// recoverable condition.
func (t *TQST) MarkRunning(id ThreadID) {
	e := t.entry(id)
	if e.pending <= 0 {
		panic(fmt.Sprintf("queue: TQST MarkRunning(%d) with no pending instance", id))
	}
	e.pending--
	e.running++
}

// MarkDone records that a running instance of id completed successfully.
func (t *TQST) MarkDone(id ThreadID) {
	e := t.entry(id)
	if e.running <= 0 {
		panic(fmt.Sprintf("queue: TQST MarkDone(%d) with no running instance", id))
	}
	e.running--
	e.executed++
	e.lastFailed = false
	t.busy--
}

// MarkFailed records that a running instance of id panicked instead of
// completing. The instance does not count as executed.
func (t *TQST) MarkFailed(id ThreadID) {
	e := t.entry(id)
	if e.running <= 0 {
		panic(fmt.Sprintf("queue: TQST MarkFailed(%d) with no running instance", id))
	}
	e.running--
	e.failed++
	e.lastFailed = true
	t.busy--
}

// NoteFailed records a panicked instance that was never in the table —
// an inline overflow run, which executes in the triggering thread and is
// invisible to pending/running accounting.
func (t *TQST) NoteFailed(id ThreadID) {
	e := t.entry(id)
	e.failed++
	e.lastFailed = true
}

// Cancel drops n pending instances of id (tcancel squashing queue entries).
func (t *TQST) Cancel(id ThreadID, n int) {
	e := t.entry(id)
	if n > e.pending {
		panic(fmt.Sprintf("queue: TQST Cancel(%d, %d) with only %d pending", id, n, e.pending))
	}
	e.pending -= n
	t.busy -= n
}

// CancelRunning drops n running instances of id that never started: a
// worker marks a whole claimed run of id running, and a tcancel landing
// mid-run stops it before the rest begin. They neither executed nor failed.
func (t *TQST) CancelRunning(id ThreadID, n int) {
	e := t.entry(id)
	if n > e.running {
		panic(fmt.Sprintf("queue: TQST CancelRunning(%d, %d) with only %d running", id, n, e.running))
	}
	e.running -= n
	t.busy -= n
}

// Forget clears id's slot entirely — execution counts and failure colour
// included — so a recycled thread ID starts with a fresh history. The
// caller must ensure id is quiet (no pending or running instance);
// forgetting an active slot would corrupt the busy count, so that is a
// panic.
func (t *TQST) Forget(id ThreadID) {
	if int(id) < 0 || int(id) >= len(t.entries) {
		return
	}
	e := &t.entries[id]
	if e.pending != 0 || e.running != 0 {
		panic(fmt.Sprintf("queue: TQST Forget(%d) with %d pending, %d running", id, e.pending, e.running))
	}
	*e = tqstEntry{}
}

// Get returns the current status of id.
func (t *TQST) Get(id ThreadID) Status {
	if int(id) < 0 || int(id) >= len(t.entries) {
		return StatusIdle
	}
	e := &t.entries[id]
	switch {
	case e.running > 0:
		return StatusRunning
	case e.pending > 0:
		return StatusPending
	case e.lastFailed:
		return StatusFailed
	default:
		return StatusIdle
	}
}

// Quiet reports whether id has neither pending nor running instances —
// the twait release condition. O(1). A failed thread is quiet: twait must
// not spin on a thread that will never run again.
func (t *TQST) Quiet(id ThreadID) bool {
	if int(id) < 0 || int(id) >= len(t.entries) {
		return true
	}
	e := &t.entries[id]
	return e.pending == 0 && e.running == 0
}

// AllQuiet reports whether every thread is idle — the tbarrier release
// condition. O(1) via the global busy count.
func (t *TQST) AllQuiet() bool { return t.busy == 0 }

// Busy returns the total pending+running instances across all threads.
func (t *TQST) Busy() int { return t.busy }

// Executed returns how many instances of id have completed successfully.
func (t *TQST) Executed(id ThreadID) int64 {
	if int(id) >= 0 && int(id) < len(t.entries) {
		return t.entries[id].executed
	}
	return 0
}

// Failed returns how many instances of id have panicked.
func (t *TQST) Failed(id ThreadID) int64 {
	if int(id) >= 0 && int(id) < len(t.entries) {
		return t.entries[id].failed
	}
	return 0
}

// InFlight returns the pending and running instance counts for id.
func (t *TQST) InFlight(id ThreadID) (pending, running int) {
	if int(id) >= 0 && int(id) < len(t.entries) {
		return t.entries[id].pending, t.entries[id].running
	}
	return 0, 0
}

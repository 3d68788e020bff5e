package queue

import "fmt"

// Status is a thread's state in the thread queue status table.
type Status int

// TQST states. The table is the thread queue's per-thread pending count
// (ThreadQueue.PendingCount) beside the runtime's run token
// (core.threadEntry.running), both under the dispatch lock; a thread reports
// its "most active" state, and twait spins until it is idle.
const (
	// StatusIdle means no pending or running instance.
	StatusIdle Status = iota
	// StatusPending means at least one instance is queued but not started.
	StatusPending
	// StatusRunning means at least one instance is executing.
	StatusRunning
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
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

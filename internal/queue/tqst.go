package queue

import "fmt"

// Status is a thread's state in the thread queue status table.
type Status int

// TQST states. A thread may have several in-flight instances; the runtime's
// per-thread record holds the instance counts (the status row lives in
// core.threadEntry, beside the run token, under the dispatch lock) and
// reports the "most active" state, which is what twait spins on.
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

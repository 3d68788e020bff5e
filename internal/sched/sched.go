// Package sched provides the seeded deterministic scheduler behind the
// runtime's BackendSeeded. The paper's execution model leaves the order in
// which queued support-thread instances run unspecified: any interleaving
// of dispatches with main-thread progress is legal, and misuse bugs (a read
// before the matching twait, a squash racing an instance) only surface
// under some of them. The immediate backend explores interleavings at the
// mercy of the Go scheduler; this package explores them *reproducibly*: a
// single uint64 seed fully determines every scheduling decision, so a
// failing interleaving found by the schedule fuzzer is replayed exactly by
// re-running with the printed seed.
//
// The scheduler makes two kinds of decisions, both drawn from a splitmix64
// stream:
//
//   - RunNow: at each preemption point (a triggering store that touched the
//     queue), whether to dispatch a pending instance immediately — modelling
//     a hardware context picking the trigger up right away — or leave it
//     queued for a later point or the next twait/tbarrier.
//   - Pick(n): which of the n dispatchable queue entries runs next,
//     permuting dispatch order away from FIFO.
//
// Everything runs on the caller's goroutine, so given the same program and
// the same seed the interleaving is bit-for-bit identical. The seed format
// is a plain decimal uint64 (see DESIGN.md, "Deterministic scheduler").
package sched

// Scheduler is a deterministic decision stream seeded once at construction.
// It is not safe for concurrent use; the seeded backend only consults it
// from the runtime's single driving goroutine.
type Scheduler struct {
	state uint64
	draws int64
}

// New returns a scheduler whose decisions are fully determined by seed.
// Any seed value is valid, including zero.
func New(seed uint64) *Scheduler {
	return &Scheduler{state: seed}
}

// Draws returns how many random decisions have been taken, as a cheap
// fingerprint that two runs followed the same schedule.
func (s *Scheduler) Draws() int64 { return s.draws }

// next advances the splitmix64 stream (Steele et al., "Fast splittable
// pseudorandom number generators").
func (s *Scheduler) next() uint64 {
	s.draws++
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next raw draw from the splitmix64 stream. It exists
// for consumers that need seeded determinism outside scheduling decisions
// — bench/'s ingest and serve drivers draw their inputs from it, so a run
// replays from its seed just like a schedule does. Like every draw it
// advances Draws.
func (s *Scheduler) Uint64() uint64 { return s.next() }

// RunNow decides whether to dispatch a pending instance at the current
// preemption point. Roughly half the points dispatch, so both "support
// thread raced ahead of main" and "support thread lagged to the twait"
// orderings appear within a few draws.
func (s *Scheduler) RunNow() bool { return s.next()&1 == 1 }

// Pick returns a uniform index in [0, n). It panics if n is not positive:
// callers must only ask when there is something to pick.
func (s *Scheduler) Pick(n int) int {
	if n <= 0 {
		panic("sched: Pick from an empty candidate set")
	}
	if n == 1 {
		// Still consume a draw so the decision stream does not depend on
		// how many candidates happened to be eligible.
		s.next()
		return 0
	}
	// Multiply-shift rejection-free mapping; bias is immaterial for
	// schedule exploration.
	return int(s.next() % uint64(n))
}

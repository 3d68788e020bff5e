// Package lockorder is golden-file input for dttlint's lockorder rule.
// The fixture types reuse the runtime's type and field names on purpose:
// lock keys are name-based ("Runtime.mu", "dispatchShard.mu"), which is
// what lets a golden package exercise the real lattice without importing
// the runtime's unexported types.
package lockorder

import "sync"

type Runtime struct {
	mu      sync.Mutex // rank 3 in the lattice
	sh      *dispatchShard
	stripes []deltaStripe
	n       int
}

type dispatchShard struct {
	mu   sync.Mutex // rank 6, the one dispatch lock
	busy int
}

type deltaStripe struct {
	mu sync.Mutex // rank 5, multi-instance
}

// Good: outermost-first. Runtime.mu (rank 3) then the dispatch lock (rank 6).
func Good(rt *Runtime) {
	rt.mu.Lock()
	rt.sh.mu.Lock()
	rt.n++
	rt.sh.mu.Unlock()
	rt.mu.Unlock()
}

// Bad: the dispatch lock is held while taking Runtime.mu — the inversion
// the rule exists for: dispatch (rank 6) then rt.mu (rank 3).
func Bad(rt *Runtime) {
	rt.sh.mu.Lock()
	rt.mu.Lock() // want: lockorder
	rt.n++
	rt.mu.Unlock()
	rt.sh.mu.Unlock()
}

// lockRT hides the Runtime.mu acquisition one call deep.
func lockRT(rt *Runtime) {
	rt.mu.Lock()
}

// BadDeep: the same inversion through the call graph. The diagnostic names
// the acquisition path (lockRT) at the call site.
func BadDeep(rt *Runtime) {
	rt.sh.mu.Lock()
	lockRT(rt) // want: lockorder
	rt.mu.Unlock()
	rt.sh.mu.Unlock()
}

// GoodDeep: the helper's acquisition is fine when nothing lower is held.
func GoodDeep(rt *Runtime) {
	lockRT(rt)
	rt.n++
	rt.mu.Unlock()
}

// TryBad: both TryLock if-forms track the held set; the inversion inside
// the success arm is real.
func TryBad(rt *Runtime) bool {
	if rt.sh.mu.TryLock() {
		rt.mu.Lock() // want: lockorder
		rt.n++
		rt.mu.Unlock()
		rt.sh.mu.Unlock()
		return true
	}
	return false
}

// TryGood: the early-return form leaves the failure path lock-free; the
// ordering on the success path is legal.
func TryGood(rt *Runtime) {
	if !rt.mu.TryLock() {
		return
	}
	rt.sh.mu.Lock()
	rt.sh.mu.Unlock()
	rt.mu.Unlock()
}

// SelfDeadlock: re-acquiring a held singleton lock can never succeed.
func SelfDeadlock(rt *Runtime) {
	rt.mu.Lock()
	rt.mu.Lock() // want: lockorder
	rt.mu.Unlock()
}

// DispatchReacquire: the dispatch lock is a singleton too.
func DispatchReacquire(rt *Runtime) {
	rt.sh.mu.Lock()
	rt.sh.mu.Lock() // want: lockorder
	rt.sh.mu.Unlock()
}

// MultiReacquire: stripe locks are multi-instance — locking two different
// stripes is not a self-deadlock.
func MultiReacquire(rt *Runtime) {
	rt.stripes[0].mu.Lock()
	rt.stripes[1].mu.Lock()
	rt.stripes[1].mu.Unlock()
	rt.stripes[0].mu.Unlock()
}

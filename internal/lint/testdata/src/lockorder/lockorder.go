// Package lockorder is golden-file input for dttlint's lockorder rule.
// The fixture types reuse the runtime's type and field names on purpose:
// lock keys are name-based ("Runtime.mu", "dispatcher.mu"), which is
// what lets a golden package exercise the real lattice without importing
// the runtime's unexported types.
package lockorder

import "sync"

type Runtime struct {
	mu      sync.Mutex // rank 3 in the lattice
	d       *dispatcher
	stripes []deltaStripe
	n       int
}

type dispatcher struct {
	mu   sync.Mutex // rank 6, the one dispatch lock
	busy int
}

type deltaStripe struct {
	mu sync.Mutex // rank 5, multi-instance
}

// Good: outermost-first. Runtime.mu (rank 3) then the dispatch lock (rank 6).
func Good(rt *Runtime) {
	rt.mu.Lock()
	rt.d.mu.Lock()
	rt.n++
	rt.d.mu.Unlock()
	rt.mu.Unlock()
}

// Bad: the dispatch lock is held while taking Runtime.mu — the inversion
// the rule exists for: dispatch (rank 6) then rt.mu (rank 3).
func Bad(rt *Runtime) {
	rt.d.mu.Lock()
	rt.mu.Lock() // want: lockorder
	rt.n++
	rt.mu.Unlock()
	rt.d.mu.Unlock()
}

// lockRT hides the Runtime.mu acquisition one call deep.
func lockRT(rt *Runtime) {
	rt.mu.Lock()
}

// BadDeep: the same inversion through the call graph. The diagnostic names
// the acquisition path (lockRT) at the call site.
func BadDeep(rt *Runtime) {
	rt.d.mu.Lock()
	lockRT(rt) // want: lockorder
	rt.mu.Unlock()
	rt.d.mu.Unlock()
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
	if rt.d.mu.TryLock() {
		rt.mu.Lock() // want: lockorder
		rt.n++
		rt.mu.Unlock()
		rt.d.mu.Unlock()
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
	rt.d.mu.Lock()
	rt.d.mu.Unlock()
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
	rt.d.mu.Lock()
	rt.d.mu.Lock() // want: lockorder
	rt.d.mu.Unlock()
}

// MultiReacquire: stripe locks are multi-instance — locking two different
// stripes is not a self-deadlock.
func MultiReacquire(rt *Runtime) {
	rt.stripes[0].mu.Lock()
	rt.stripes[1].mu.Lock()
	rt.stripes[1].mu.Unlock()
	rt.stripes[0].mu.Unlock()
}

// sleep is the condition-wait shape: entered with the caller's dispatch
// lock held, it drops it around the wait and takes it back before
// returning. It is not an acquisition, so its caller's held set is the
// same after the call as before.
func sleep(d *dispatcher, ch chan struct{}) {
	d.mu.Unlock()
	<-ch
	d.mu.Lock()
}

// CondWait: calling the condition wait with the dispatch lock held is legal.
func CondWait(rt *Runtime, ch chan struct{}) {
	rt.d.mu.Lock()
	for rt.d.busy != 0 {
		sleep(rt.d, ch)
	}
	rt.d.mu.Unlock()
}

// relock only takes the dispatch lock: its caller must not hold it.
func relock(d *dispatcher) {
	d.mu.Lock()
}

// RelockHelper: a helper that re-acquires without releasing first is still
// a self-deadlock, reported at the call with the acquisition path.
func RelockHelper(rt *Runtime) {
	rt.d.mu.Lock()
	relock(rt.d) // want: lockorder
	rt.d.mu.Unlock()
}

// lockVia01 … lockVia16 hide the Runtime.mu acquisition sixteen calls
// deep. Each caller's key sorts before its callee's, so the summaries learn
// the chain one link a round: the fixpoint must run until nothing changes,
// however long the chain.
func lockVia01(rt *Runtime) { lockVia02(rt) }
func lockVia02(rt *Runtime) { lockVia03(rt) }
func lockVia03(rt *Runtime) { lockVia04(rt) }
func lockVia04(rt *Runtime) { lockVia05(rt) }
func lockVia05(rt *Runtime) { lockVia06(rt) }
func lockVia06(rt *Runtime) { lockVia07(rt) }
func lockVia07(rt *Runtime) { lockVia08(rt) }
func lockVia08(rt *Runtime) { lockVia09(rt) }
func lockVia09(rt *Runtime) { lockVia10(rt) }
func lockVia10(rt *Runtime) { lockVia11(rt) }
func lockVia11(rt *Runtime) { lockVia12(rt) }
func lockVia12(rt *Runtime) { lockVia13(rt) }
func lockVia13(rt *Runtime) { lockVia14(rt) }
func lockVia14(rt *Runtime) { lockVia15(rt) }
func lockVia15(rt *Runtime) { lockVia16(rt) }
func lockVia16(rt *Runtime) { rt.mu.Lock() }

// BadDeepChain: the BadDeep inversion, sixteen helpers down.
func BadDeepChain(rt *Runtime) {
	rt.d.mu.Lock()
	lockVia01(rt) // want: lockorder
	rt.mu.Unlock()
	rt.d.mu.Unlock()
}

// Package configmisuse is golden-file input for dttlint's config-misuse
// rule: discarded results, leaked runtimes, and Config fields the backend
// ignores.
package configmisuse

import "dtt"

// DiscardedRegister: the ThreadID is the only handle for Attach/Wait/Cancel.
func DiscardedRegister(rt *dtt.Runtime) {
	rt.Register("orphan", func(tg dtt.Trigger) {}) // want: config-misuse
}

// DiscardedAttach: both the bare-statement and blank-assign forms.
func DiscardedAttach(rt *dtt.Runtime, r *dtt.Region, id dtt.ThreadID) {
	rt.Attach(id, r, 0, 1)     // want: config-misuse
	_ = rt.Attach(id, r, 0, 1) // want: config-misuse
}

// CheckedOK: binding and checking results is the clean form.
func CheckedOK(rt *dtt.Runtime, r *dtt.Region) {
	id := rt.Register("bound", func(tg dtt.Trigger) {})
	if err := rt.Attach(id, r, 0, 1); err != nil {
		panic(err)
	}
}

// Leaked: a runtime built and never Closed in a function it never leaves.
func Leaked() {
	rt, err := dtt.New(dtt.Config{}) // want: config-misuse
	if err != nil {
		panic(err)
	}
	rt.Barrier()
}

// ClosedOK: the deferred Close makes the same shape clean.
func ClosedOK() {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	rt.Barrier()
}

// EscapesOK: handing the runtime to another function moves ownership; the
// rule stands down rather than guess.
func EscapesOK(sink func(*dtt.Runtime)) {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	sink(rt)
}

// IgnoredWorkers: Workers only exists on BackendImmediate; the deferred
// backend (the zero value here) runs support threads on one goroutine, as it
// does under a schedule (that finding says "seeded", from core's constant).
func IgnoredWorkers() {
	_ = dtt.Config{Backend: dtt.BackendSeeded, Workers: 2} // want: config-misuse
	rt, err := dtt.New(dtt.Config{
		Workers: 2, // want: config-misuse
	})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
}

// GoodConfig: Workers on the parallel backend.
func GoodConfig() {
	rt, err := dtt.New(dtt.Config{
		Backend: dtt.BackendImmediate,
		Workers: 4,
	})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
}

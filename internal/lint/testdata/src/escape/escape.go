// Package escape is golden-file input for dttlint's write-escape rule:
// support bodies writing regions outside their declared windows. Like the
// sanitizer's confinement checking, the rule is opt-in — it only applies
// to threads that declare at least one AllowWrites grant.
package escape

import "dtt"

func newRT() *dtt.Runtime {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	return rt
}

// Confined: the thread declares its output window, so every store in the
// body is checked. Trigger region, attached region and granted region are
// all legitimate targets; the scratch region is an escape.
func Confined() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	scratch := rt.NewRegion("scratch", 8)
	th := rt.Register("th", func(tg dtt.Trigger) {
		tg.Region.Store(tg.Index, 0)
		data.Store(tg.Index, 1)
		out.Store(tg.Index, 2)
		scratch.Store(0, 3) // want: write-escape
	})
	if err := rt.Attach(th, data, 0, 8); err != nil {
		panic(err)
	}
	if err := rt.AllowWrites(th, out, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 9)
	rt.Barrier()
}

// Unconfined: no AllowWrites grant means no declared discipline to check —
// the rule stands down, exactly as the dynamic checker does.
func Unconfined() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	scratch := rt.NewRegion("scratch", 8)
	th := rt.Register("th", func(tg dtt.Trigger) {
		scratch.Store(0, 3)
	})
	if err := rt.Attach(th, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 9)
	rt.Barrier()
}

// ConfinedBatch: batched triggering stores are body writes like any other;
// a batch to an undeclared region escapes, a batch into the granted window
// does not.
func ConfinedBatch() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	scratch := rt.NewRegion("scratch", 8)
	th := rt.Register("th", func(tg dtt.Trigger) {
		out.TStoreBatch(0, []dtt.Word{1, 2})
		scratch.TStoreBatch(0, []dtt.Word{3, 4}) // want: write-escape
	})
	if err := rt.Attach(th, data, 0, 8); err != nil {
		panic(err)
	}
	if err := rt.AllowWrites(th, out, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 9)
	rt.Barrier()
}

// ConfinedUpdate: commutative updates are body writes like stores — where
// the delta folds is where the merge will land it, so an update to an
// undeclared region escapes and one into the granted window does not.
func ConfinedUpdate() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	scratch := rt.NewRegion("scratch", 8)
	th := rt.Register("th", func(tg dtt.Trigger) {
		out.TUpdateBatch(0, dtt.UpdAdd, []dtt.Word{1, 2})
		scratch.TUpdate(0, dtt.UpdOr, 4) // want: write-escape
	})
	if err := rt.Attach(th, data, 0, 8); err != nil {
		panic(err)
	}
	if err := rt.AllowWrites(th, out, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 9)
	rt.Barrier()
}

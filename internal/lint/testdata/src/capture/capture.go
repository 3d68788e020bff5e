// Package capture is golden-file input for dttlint's trigger-capture rule:
// ThreadFunc closures capturing variables whose value at fire time differs
// from the value at registration time. Loop variables are not among them:
// under the module's go 1.22 every iteration binds its own.
package capture

import "dtt"

func newRT() *dtt.Runtime {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	return rt
}

// LoopVar: each registered body reads its own iteration's i, which nothing
// reassigns after Register, so every lane writes its own out word.
func LoopVar() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	for i := 0; i < 4; i++ {
		id := rt.Register("lane", func(tg dtt.Trigger) {
			out.Store(i, 1)
		})
		if err := rt.Attach(id, data, i, i+1); err != nil {
			panic(err)
		}
	}
	data.TStore(0, 1)
	rt.Barrier()
}

// RangeVar: the same through a range loop — clean.
func RangeVar(lanes []int) {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	for _, lane := range lanes {
		id := rt.Register("lane", func(tg dtt.Trigger) {
			out.Store(lane, 1)
		})
		if err := rt.Attach(id, data, lane, lane+1); err != nil {
			panic(err)
		}
	}
	data.TStore(0, 1)
	rt.Barrier()
}

// RangeVarReassigned: the range variable is per iteration, but the loop
// body rebinds it after Register, so the body reads whichever value it holds
// when the trigger fires.
func RangeVarReassigned(lanes []int) {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	for _, lane := range lanes {
		id := rt.Register("lane", func(tg dtt.Trigger) {
			out.Store(lane, 1) // want: trigger-capture
		})
		if err := rt.Attach(id, data, lane, lane+1); err != nil {
			panic(err)
		}
		lane = 0
	}
	data.TStore(0, 1)
	rt.Barrier()
}

// Reassigned: a local mutated after registration — the body observes the
// mutation at an unpredictable point.
func Reassigned() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	scale := dtt.Word(2)
	id := rt.Register("scaled", func(tg dtt.Trigger) {
		out.Store(tg.Index, scale) // want: trigger-capture
	})
	if err := rt.Attach(id, data, 0, 8); err != nil {
		panic(err)
	}
	scale = 3
	data.TStore(0, 9)
	rt.Wait(id)
}

// StableOK: capturing regions and never-reassigned locals is the normal
// idiom and must stay clean.
func StableOK() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	bias := dtt.Word(7)
	id := rt.Register("biased", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)+bias)
	})
	if err := rt.Attach(id, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 9)
	rt.Wait(id)
}

// Package readwait is golden-file input for dttlint's read-before-wait
// rule. A `want` comment marks a line that must produce exactly the named
// diagnostic; lines without one must stay clean.
package readwait

import "dtt"

func newRT() *dtt.Runtime {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	return rt
}

// Positive: the output region is read with a trigger outstanding.
func Positive() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	return out.Load(0) // want: read-before-wait
}

// Negative: Wait orders the load after the support thread's writes.
func Negative() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	rt.Wait(sq)
	return out.Load(0)
}

// Branch: one path Waits, the other does not — dangerous on any path is
// dangerous.
func Branch(sync bool) dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	if sync {
		rt.Wait(sq)
	}
	return out.Load(0) // want: read-before-wait
}

// LoopCarried: the trigger at the bottom of the loop reaches the load at
// the top of the next iteration.
func LoopCarried(n int) dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	var acc dtt.Word
	for i := 0; i < n; i++ {
		acc += out.Load(0) // want: read-before-wait
		data.TStore(0, dtt.Word(i))
	}
	rt.Barrier()
	return acc
}

// BarrierClears: Barrier synchronises like Wait.
func BarrierClears() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	rt.Barrier()
	return out.Load(0)
}

// InputReadOK: reading the trigger region itself is the main thread's own
// data, not a support output.
func InputReadOK() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	v := data.Load(0)
	rt.Wait(sq)
	return v
}

// UnattachedStoreOK: a triggering store to a region with no attachment in
// this package fires nothing, so the following load is clean.
func UnattachedStoreOK() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	free := rt.NewRegion("free", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	free.TStore(0, 1)
	return out.Load(0)
}

// BatchPositive: a batched triggering store leaves triggers outstanding
// exactly like its scalar form; the unsynchronised load is flagged.
func BatchPositive() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStoreBatch(0, []dtt.Word{1, 2, 3})
	return out.Load(0) // want: read-before-wait
}

// BatchNegative: a Barrier after a TStoreBatch clears the outstanding bit,
// matching the scalar contract word for word.
func BatchNegative() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	src := []dtt.Word{1, 2, 3}
	data.TStoreBatch(0, src)
	rt.Barrier()
	return out.Load(0)
}

// UpdatePositive: TUpdate is a triggering write — the trigger just fires
// later, at the merge — so reading the output region before a sync point
// is exactly as dangerous as after a scalar TStore.
func UpdatePositive() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TUpdate(0, dtt.UpdAdd, 1)
	return out.Load(0) // want: read-before-wait
}

// UpdateNegative: Barrier is a merge point and a sync point — it applies
// the pending deltas, drains the triggers they fire, and orders the load.
func UpdateNegative() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TUpdateBatch(0, dtt.UpdAdd, []dtt.Word{1, 2, 3})
	rt.Barrier()
	return out.Load(0)
}

// The cases below hold read-before-wait to the paths break, continue and
// calls that never return take. Each function keeps its regions inline: a
// region a helper returns has no identity the rule can follow.

// BreakSkipsWait: the break leaves the loop with the last trigger still
// outstanding, so the load after the loop is reachable unsynchronised.
func BreakSkipsWait(n int) dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		data.TStore(0, dtt.Word(i))
		if i == 3 {
			break
		}
		rt.Wait(sq)
	}
	return out.Load(0) // want: read-before-wait
}

// ContinueSkipsWait: the continue carries the trigger to the next
// iteration's load at the loop head.
func ContinueSkipsWait(n int) dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	var acc dtt.Word
	for i := 0; i < n; i++ {
		acc += out.Load(0) // want: read-before-wait
		data.TStore(0, dtt.Word(i))
		if i%2 == 0 {
			continue
		}
		rt.Wait(sq)
	}
	rt.Barrier()
	return acc
}

// SwitchBreak: a break out of a switch case skips the case's Wait.
func SwitchBreak(mode int, skip bool) dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	switch mode {
	case 0:
		if skip {
			break
		}
		rt.Wait(sq)
	default:
		rt.Barrier()
	}
	return out.Load(0) // want: read-before-wait
}

// LabelledBreak: the labelled break leaves both loops from between the
// inner loop's store and its Wait.
func LabelledBreak(n int) dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			data.TStore(0, dtt.Word(i+j))
			if j == i {
				break outer
			}
			rt.Wait(sq)
		}
	}
	return out.Load(0) // want: read-before-wait
}

// ForeverExitsAfterWait: a loop with no condition leaves only through its
// break, which follows a Wait; the store before the loop cannot reach the
// load after it. Clean.
func ForeverExitsAfterWait() dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	for {
		rt.Wait(sq)
		if out.Load(0) != 0 {
			break
		}
		data.TStore(0, 2)
	}
	return out.Load(0)
}

// PanicEndsPath: the branch that skips the Wait never returns, so no path
// reaches the load with the trigger outstanding. Clean.
func PanicEndsPath(ok bool) dtt.Word {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		out.Store(tg.Index, 1)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 1)
	if ok {
		rt.Wait(sq)
	} else {
		panic("no result")
	}
	return out.Load(0)
}

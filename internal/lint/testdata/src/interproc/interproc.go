// Package interproc is golden-file input for dttlint's whole-program
// layer. Every protocol step here is hidden one call (or one recursion)
// deep: a single-function walk would see nothing, the function summaries
// see everything. TestInterprocFindsHiddenHazards pins what the
// whole-program run reports here.
//
// Regions live in struct fields — the summary layer identifies regions by
// field or package variable, so the `p.out.Load(...)` method idiom
// resolves across calls while a region passed as a parameter does not
// (a documented blind spot, shared with the facts layer).
package interproc

import "dtt"

// pipe is one squaring pipeline: in triggers sq, sq writes out.
type pipe struct {
	rt  *dtt.Runtime
	in  *dtt.Region
	out *dtt.Region
	sq  dtt.ThreadID
}

func newPipe() *pipe {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	p := &pipe{rt: rt}
	p.in = rt.NewRegion("in", 8)
	p.out = rt.NewRegion("out", 8)
	p.sq = rt.Register("sq", func(tg dtt.Trigger) {
		p.out.Store(tg.Index, tg.Region.Load(tg.Index)*tg.Region.Load(tg.Index))
	})
	if err := rt.Attach(p.sq, p.in, 0, 8); err != nil {
		panic(err)
	}
	return p
}

// fire hides the triggering store one call deep.
func (p *pipe) fire(v dtt.Word) { p.in.TStore(0, v) }

// result hides the output read one call deep.
func (p *pipe) result() dtt.Word { return p.out.Load(0) }

// sync hides the Wait one call deep.
func (p *pipe) sync() { p.rt.Wait(p.sq) }

// HiddenTrigger: the store that arms the hazard is inside fire; the read
// is direct. Intra-procedurally this function never triggers, so the old
// pass stayed silent; the summary's exit bit carries it.
func HiddenTrigger() dtt.Word {
	p := newPipe()
	defer p.rt.Close()
	p.fire(3)
	return p.out.Load(0) // want: read-before-wait
}

// HiddenRead: the trigger is direct, the read is inside result. Reported
// at the call with the chain that reaches the load.
func HiddenRead() dtt.Word {
	p := newPipe()
	defer p.rt.Close()
	p.in.TStore(0, 3)
	return p.result() // want: read-before-wait
}

// HiddenWait: sync's summary clears the bit, so the load is ordered. No
// finding on any line.
func HiddenWait() dtt.Word {
	p := newPipe()
	defer p.rt.Close()
	p.fire(3)
	p.sync()
	return p.out.Load(0)
}

// settle waits for sq after each store, but its break leaves the loop
// between a store and its Wait: its summary must export "trigger may be
// outstanding" for a caller that enters clean.
func (p *pipe) settle(vs []dtt.Word) {
	for _, v := range vs {
		p.in.TStore(0, v)
		if v == 0 {
			break
		}
		p.sync()
	}
}

// BreakInHelper: settle's break path leaves the trigger outstanding, so
// the hidden read in result is reported at its call with the chain.
func BreakInHelper() dtt.Word {
	p := newPipe()
	defer p.rt.Close()
	p.settle([]dtt.Word{1, 0, 2})
	return p.result() // want: read-before-wait
}

// fireEven / fireOdd are mutually recursive: the triggering store escapes
// through an arbitrary recursion depth. The summary fixpoint must converge
// on exitIfClean = true for both.
func fireEven(p *pipe, n int) {
	if n == 0 {
		p.in.TStore(0, 2)
		return
	}
	fireOdd(p, n-1)
}

func fireOdd(p *pipe, n int) {
	if n == 0 {
		p.in.TStore(0, 3)
		return
	}
	fireEven(p, n-1)
}

// Recursive: the trigger is an entire recursion away from the read.
func Recursive() dtt.Word {
	p := newPipe()
	defer p.rt.Close()
	fireEven(p, 4)
	return p.out.Load(0) // want: read-before-wait
}

// MethodValue documents a blind spot, deliberately: a method value's call
// site resolves to a variable, not a *types.Func, so the summary transfer
// does not apply and the load below is not flagged. The call-graph still
// records the reference (TestCallGraph pins that), which is what keeps
// support-only and entry-held inference sound in the presence of escaping
// methods.
func MethodValue() dtt.Word {
	p := newPipe()
	defer p.rt.Close()
	f := p.fire
	f(3)
	return p.out.Load(0)
}

// chain is a two-stage pipeline: a triggers sq, sq writes b through the
// helper below, b triggers cu.
type chain struct {
	rt *dtt.Runtime
	a  *dtt.Region
	b  *dtt.Region
	sq dtt.ThreadID
	cu dtt.ThreadID
}

// passOn is referenced only inside sq's body, so the whole-program layer
// proves it support-only: its plain store to the attached region b is
// stage-1 output, not a missed trigger. Without that inference this store
// would be an untriggered-write false positive —
// TestInterprocFindsHiddenHazards pins that it is not.
func passOn(ch *chain, i int, v dtt.Word) {
	ch.b.Store(i, v)
}

func newChain() *chain {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	ch := &chain{rt: rt}
	ch.a = rt.NewRegion("a", 8)
	ch.b = rt.NewRegion("b", 8)
	ch.sq = rt.Register("sq", func(tg dtt.Trigger) {
		passOn(ch, tg.Index, tg.Region.Load(tg.Index)+1)
	})
	ch.cu = rt.Register("cu", func(tg dtt.Trigger) {
		_ = tg.Region.Load(tg.Index)
	})
	if err := rt.Attach(ch.sq, ch.a, 0, 8); err != nil {
		panic(err)
	}
	if err := rt.Attach(ch.cu, ch.b, 0, 8); err != nil {
		panic(err)
	}
	return ch
}

// ChainedFlow drives the two stages and synchronises before exit: clean.
func ChainedFlow() {
	ch := newChain()
	defer ch.rt.Close()
	ch.a.TStore(0, 7)
	ch.rt.Barrier()
}

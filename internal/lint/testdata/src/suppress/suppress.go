// Package suppress is golden-file input for dttlint's //dtt:ignore
// machinery: a well-formed directive silences exactly one finding, a
// directive without a justification (or naming an unknown rule) is itself
// a finding, and a malformed directive suppresses nothing.
package suppress

import "dtt"

func newRT() *dtt.Runtime {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	return rt
}

// Suppressed: a true untriggered-write silenced with a justification; the
// run's Suppressed count must include it and Diagnostics must not.
func Suppressed() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.Store(0, 5) //dtt:ignore untriggered-write -- deliberate: exercising suppression in the golden test
	rt.Barrier()
}

// PrecedingLineOK: the directive may also sit on its own line above the
// finding.
func PrecedingLineOK() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	//dtt:ignore untriggered-write -- deliberate: preceding-line form
	data.Store(0, 5)
	rt.Barrier()
}

// Unjustified: a directive with no justification is a bad-ignore finding
// and suppresses nothing — the store underneath still reports.
func Unjustified() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	// want: +1:bad-ignore +2:untriggered-write
	//dtt:ignore untriggered-write
	data.Store(0, 5)
	rt.Barrier()
}

// UnknownRule: naming a rule that does not exist is a bad-ignore finding,
// and the directive suppresses nothing.
func UnknownRule() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	// want: +1:bad-ignore +2:untriggered-write
	//dtt:ignore no-such-rule -- the rule name is wrong
	data.Store(0, 5)
	rt.Barrier()
}

// RetiredRule: a directive naming a rule that no longer exists is a
// bad-ignore finding like any unknown name, so a stale suppression surfaces
// instead of lingering, and the store underneath still reports.
func RetiredRule() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	// want: +1:bad-ignore +2:untriggered-write
	//dtt:ignore write-escape -- the support body writes outside its declared windows
	data.Store(0, 5)
	rt.Barrier()
}

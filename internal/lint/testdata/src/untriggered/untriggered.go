// Package untriggered is golden-file input for dttlint's untriggered-write
// rule: plain Stores to attached regions outside support bodies.
package untriggered

import "dtt"

func newRT() *dtt.Runtime {
	rt, err := dtt.New(dtt.Config{})
	if err != nil {
		panic(err)
	}
	return rt
}

// Positive: a plain Store to an attached region from the main thread —
// attached threads never see the update.
func Positive() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.Store(0, 5) // want: untriggered-write
	rt.Barrier()
}

// SupportBodyOK: a support body storing to its own attached region is the
// recompute-and-republish idiom, not a protocol break.
func SupportBodyOK() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {
		data.Store(tg.Index, 0)
	})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStore(0, 5)
	rt.Barrier()
}

// PokeOK: Poke is the sanctioned event-free write for input setup.
func PokeOK() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.Poke(0, 5)
	data.TStore(0, 6)
	rt.Barrier()
}

// UnattachedOK: storing to a region nothing is attached to is plain memory.
func UnattachedOK() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	scratch := rt.NewRegion("scratch", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	scratch.Store(0, 7)
	data.TStore(0, 8)
	rt.Barrier()
}

// BatchOK: TStoreBatch is a triggering write — attached threads see every
// changed word, from a literal or a named slice — so neither batch trips the
// rule the way a plain Store does.
func BatchOK() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TStoreBatch(0, []dtt.Word{1, 2})
	src := []dtt.Word{3, 4}
	data.TStoreBatch(2, src)
	rt.Barrier()
}

// UpdateOK: TUpdate and TUpdateBatch are triggering writes — attached
// threads observe every changed word once the deltas merge — so neither
// trips the rule the way a plain Store does.
func UpdateOK() {
	rt := newRT()
	defer rt.Close()
	data := rt.NewRegion("data", 8)
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, data, 0, 8); err != nil {
		panic(err)
	}
	data.TUpdate(0, dtt.UpdAdd, 1)
	data.TUpdateBatch(2, dtt.UpdMax, []dtt.Word{3, 4})
	rt.Barrier()
}

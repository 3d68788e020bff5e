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

// deepStore holds the region a 22-helper chain stores to.
type deepStore struct {
	b *dtt.Region
}

// storeVia01 … storeVia22: DeepChain reaches the plain Store in storeVia01
// through twenty-one helpers. Each callee's key sorts before its caller's,
// so support-only inference learns one link a round that the chain runs in
// main context: it must run until nothing changes, however long the chain.
func storeVia01(x *deepStore) {
	x.b.Store(0, 1) // want: untriggered-write
}
func storeVia02(x *deepStore) { storeVia01(x) }
func storeVia03(x *deepStore) { storeVia02(x) }
func storeVia04(x *deepStore) { storeVia03(x) }
func storeVia05(x *deepStore) { storeVia04(x) }
func storeVia06(x *deepStore) { storeVia05(x) }
func storeVia07(x *deepStore) { storeVia06(x) }
func storeVia08(x *deepStore) { storeVia07(x) }
func storeVia09(x *deepStore) { storeVia08(x) }
func storeVia10(x *deepStore) { storeVia09(x) }
func storeVia11(x *deepStore) { storeVia10(x) }
func storeVia12(x *deepStore) { storeVia11(x) }
func storeVia13(x *deepStore) { storeVia12(x) }
func storeVia14(x *deepStore) { storeVia13(x) }
func storeVia15(x *deepStore) { storeVia14(x) }
func storeVia16(x *deepStore) { storeVia15(x) }
func storeVia17(x *deepStore) { storeVia16(x) }
func storeVia18(x *deepStore) { storeVia17(x) }
func storeVia19(x *deepStore) { storeVia18(x) }
func storeVia20(x *deepStore) { storeVia19(x) }
func storeVia21(x *deepStore) { storeVia20(x) }
func storeVia22(x *deepStore) { storeVia21(x) }

// DeepChain: the Positive store, twenty-two calls down.
func DeepChain() {
	rt := newRT()
	defer rt.Close()
	x := &deepStore{b: rt.NewRegion("b", 8)}
	sq := rt.Register("sq", func(tg dtt.Trigger) {})
	if err := rt.Attach(sq, x.b, 0, 8); err != nil {
		panic(err)
	}
	storeVia22(x)
	rt.Barrier()
}

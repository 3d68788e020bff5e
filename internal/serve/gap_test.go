package serve

import (
	"testing"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// TestServeReadRoundTrip covers the READ opcode: a point-in-time copy of
// the region comes back over the wire, spans are validated, and the
// session stays alive after a READ error.
func TestServeReadRoundTrip(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})
	defer rt.Close()
	defer srv.Close()

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()
	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	want := []mem.Word{10, 20, 30, 40, 50, 60, 70, 80}
	if _, err := cs.Batch(h, 0, want); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	got, err := cs.Read(h, 0, 8)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Read[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Partial span.
	mid, err := cs.Read(h, 2, 3)
	if err != nil {
		t.Fatalf("partial Read: %v", err)
	}
	if len(mid) != 3 || mid[0] != 30 || mid[2] != 50 {
		t.Errorf("partial Read = %v, want [30 40 50]", mid)
	}
	// Out-of-range span: ERROR reply, session alive.
	if _, err := cs.Read(h, 4, 8); err == nil {
		t.Error("Read past the region end did not error")
	}
	if _, err := cs.Read(99, 0, 1); err == nil {
		t.Error("Read with unknown handle did not error")
	}
	if _, err := cs.Batch(h, 0, []mem.Word{1}); err != nil {
		t.Fatalf("Batch after READ errors: %v", err)
	}
	if got := srv.Counters().Errors; got != 2 {
		t.Errorf("Errors = %d, want 2", got)
	}
}

// TestServeReadMergesUpdates: READ returns the merged truth — TUPDATE
// deltas folded but not yet merged are collected before the words are
// copied out, so a recovering subscriber never reads a pre-merge value.
func TestServeReadMergesUpdates(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})
	defer rt.Close()
	defer srv.Close()

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()
	h, err := cs.Attach("r", 4, 0, 4)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := cs.Update(h, 0, mem.UpdAdd, []mem.Word{5, 6, 7, 8}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if _, err := cs.Update(h, 0, mem.UpdAdd, []mem.Word{5, 6, 7, 8}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, err := cs.Read(h, 0, 4)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := []mem.Word{10, 12, 14, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Read[%d] = %d, want %d (deltas not merged?)", i, got[i], want[i])
		}
	}
}

// TestNotifyGapDetectableInBand is the stalled-subscriber acceptance test:
// a subscriber that stops reading past MailboxCap loses notifications —
// that is the shedding contract — but the loss must be visible in-band.
// The test stalls a raw client while flooding its session with changing
// batches, then drains everything and asserts (1) a nonzero cumulative
// dropped count arrived on the wire, (2) it exactly equals the server's
// NotifyDropped counter, and (3) a READ recovers the authoritative final
// words, so the subscriber ends consistent despite the gap.
func TestNotifyGapDetectableInBand(t *testing.T) {
	const (
		words   = 64
		batches = 2000
		cap     = 4
	)
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2, QueueCapacity: 256},
		Options{MailboxCap: cap})
	defer rt.Close()
	defer srv.Close()

	conn, fr := rawDial(t, addr)
	defer conn.Close()

	// ATTACH + SUBSCRIBE by hand.
	frame := make([]byte, 0, 32)
	frame, start := appendFrameHeader(frame, OpAttach)
	frame = appendU32(frame, words)
	frame = appendU32(frame, 0)
	frame = appendU32(frame, words)
	frame = appendU16(frame, 1)
	frame = append(frame, 'r')
	patchFrameLength(frame, start)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write ATTACH: %v", err)
	}
	if op, _, err := fr.ReadFrame(); err != nil || op != OpAttach {
		t.Fatalf("ATTACH reply: op %d, err %v", op, err)
	}
	frame = frame[:0]
	frame, start = appendFrameHeader(frame, OpSubscribe)
	frame = appendU32(frame, 0)
	patchFrameLength(frame, start)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write SUBSCRIBE: %v", err)
	}
	if op, _, err := fr.ReadFrame(); err != nil || op != OpSubscribe {
		t.Fatalf("SUBSCRIBE reply: op %d, err %v", op, err)
	}

	// The stall: write every batch without reading a single frame back.
	// The server's writer fills the socket and blocks; the mailbox fills
	// to cap; every further notification is shed. Values always change,
	// so each batch offers up to `words` notifications — far more than
	// the socket plus mailbox can hold.
	last := make([]mem.Word, words)
	for b := 1; b <= batches; b++ {
		frame = frame[:0]
		frame, start = appendFrameHeader(frame, OpTStoreBatch)
		frame = appendU32(frame, 0) // handle
		frame = appendU32(frame, 0) // lo
		frame = appendU32(frame, words)
		for w := 0; w < words; w++ {
			last[w] = uint64(b*words + w + 1)
			frame = appendU64(frame, last[w])
		}
		patchFrameLength(frame, start)
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write batch %d: %v", b, err)
		}
	}
	// WAIT: its reply is queued after every notification the thread's
	// runs produced, so once we see it the notify stream is complete.
	frame = frame[:0]
	frame, start = appendFrameHeader(frame, OpWait)
	frame = appendU32(frame, 0)
	patchFrameLength(frame, start)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write WAIT: %v", err)
	}

	// Unstall: drain replies and notifications until the WAIT reply.
	var (
		gotNotifies int64
		maxDropped  uint32
		replies     int
	)
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for {
		op, payload, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("drain after %d replies, %d notifies: %v", replies, gotNotifies, err)
		}
		if op == OpChangeNotify {
			// Wire v3, decoded by hand: handle | lo | dropped | n | n words.
			c := cursor{b: payload}
			c.u32() // handle
			lo := c.u32()
			dropped := c.u32()
			n := c.u32()
			if c.bad || n == 0 || n > cap || lo+n > words || len(payload)-c.off != int(n)*8 {
				t.Fatalf("malformed CHANGE_NOTIFY of %d bytes: lo %d, n %d at MailboxCap %d", len(payload), lo, n, cap)
			}
			if dropped < maxDropped {
				t.Fatalf("cumulative dropped went backwards: %d after %d", dropped, maxDropped)
			}
			maxDropped = dropped
			gotNotifies += int64(n)
			continue
		}
		if op == OpTStoreBatch {
			replies++
			continue
		}
		if op == OpWait {
			break
		}
		t.Fatalf("unexpected %s while draining", opName(op))
	}
	if replies != batches {
		t.Errorf("drained %d TSTORE_BATCH replies, want %d", replies, batches)
	}

	// (1) The gap is nonzero and was announced in-band.
	if maxDropped == 0 {
		t.Fatalf("no gap on the wire after stalling %d batches x %d words past MailboxCap=%d (got %d notifies)",
			batches, words, cap, gotNotifies)
	}
	// (2) The on-wire cumulative count matches the server's counter: no
	// drop is unaccounted in either direction.
	c := srv.Counters()
	if int64(maxDropped) != c.NotifyDropped {
		t.Errorf("on-wire cumulative dropped %d != server NotifyDropped %d", maxDropped, c.NotifyDropped)
	}
	if gotNotifies != c.Notifies {
		t.Errorf("client received %d notifies, server queued %d", gotNotifies, c.Notifies)
	}

	// (3) Recovery: a READ of the whole region returns the authoritative
	// final words, so the subscriber's view is consistent again.
	frame = frame[:0]
	frame, start = appendFrameHeader(frame, OpRead)
	frame = appendU32(frame, 0)
	frame = appendU32(frame, 0)
	frame = appendU32(frame, words)
	patchFrameLength(frame, start)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write READ: %v", err)
	}
	op, payload, err := fr.ReadFrame()
	if err != nil || op != OpRead {
		t.Fatalf("READ reply: op %d, err %v", op, err)
	}
	rc := cursor{b: payload}
	if n := rc.u32(); n != words {
		t.Fatalf("READ reply carries %d words, want %d", n, words)
	}
	for w := 0; w < words; w++ {
		if got := rc.u64(); got != last[w] {
			t.Errorf("recovered word %d = %d, want %d", w, got, last[w])
		}
	}
}

// TestNotifyGapZeroWhenKeepingUp: a subscriber that drains promptly never
// sees a nonzero dropped count — the in-band gap signal has no false
// positives.
func TestNotifyGapZeroWhenKeepingUp(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{})
	defer rt.Close()
	defer srv.Close()

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()
	h, err := cs.Attach("r", 16, 0, 16)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := cs.Subscribe(h); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	vs := make([]mem.Word, 16)
	for b := 1; b <= 50; b++ {
		for w := range vs {
			vs[w] = uint64(b*100 + w)
		}
		if _, err := cs.Batch(h, 0, vs); err != nil {
			t.Fatalf("Batch: %v", err)
		}
		if err := cs.Wait(h); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		for _, n := range cs.Notifies() {
			if n.Dropped != 0 {
				t.Fatalf("notify carries dropped=%d on a prompt subscriber", n.Dropped)
			}
		}
		if g := cs.TakeGap(); g != 0 {
			t.Fatalf("TakeGap = %d on a prompt subscriber", g)
		}
	}
	if cs.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", cs.Dropped())
	}
}

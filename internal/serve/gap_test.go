package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// TestServeReadRoundTrip covers the READ opcode: a point-in-time copy of
// the region comes back over the wire, spans are validated, and the
// session stays alive after a READ error.
func TestServeReadRoundTrip(t *testing.T) {
	_, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

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
	_, _, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

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

// TestNotifyGapDetectableInBand: a stalled subscriber converges. The
// test stalls a raw client (wire v3's decoder, by hand) while flooding
// its session with changing batches, then drains everything and asserts
// that (1) every in-band dropped stamp reads 0 and so does the server's
// NotifyDropped — a live session sheds nothing, however far behind its
// client falls — (2) the client received exactly the words the server
// queued, and (3) the client's cache, built from the notifications alone,
// equals the region's final words without a READ: a word that changed
// again while its notification was pending went out once, with its latest
// value.
func TestNotifyGapDetectableInBand(t *testing.T) {
	const (
		words   = 64
		batches = 2000
	)
	_, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2, QueueCapacity: 256})

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
	// The server's writes fill the socket and block, so the words the
	// support thread pushes meanwhile wait in the outbox. Values always
	// change, so each batch offers up to `words` notifications — far more
	// than the socket can hold.
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
		replies     int
		cache       [words]mem.Word
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
			if c.bad || n == 0 || lo+n > words || len(payload)-c.off != int(n)*8 {
				t.Fatalf("malformed CHANGE_NOTIFY of %d bytes: lo %d, n %d", len(payload), lo, n)
			}
			if dropped != 0 {
				t.Fatalf("a live session's CHANGE_NOTIFY carries dropped stamp %d", dropped)
			}
			for i := lo; i < lo+n; i++ {
				cache[i] = c.u64()
			}
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
	c := srv.Counters()
	if c.NotifyDropped != 0 {
		t.Errorf("NotifyDropped = %d on a live session, want 0", c.NotifyDropped)
	}
	if gotNotifies != c.Notifies {
		t.Errorf("client received %d notifies, server queued %d", gotNotifies, c.Notifies)
	}
	for w := range last {
		if cache[w] != last[w] {
			t.Errorf("cached word %d = %d after the drain, want the region's %d", w, cache[w], last[w])
		}
	}
	t.Logf("%d batches x %d changed words reached the client as %d notification words", batches, words, gotNotifies)
}

// TestNotifyGapZeroWhenKeepingUp: a subscriber that drains promptly never
// sees a nonzero dropped count — the in-band gap signal has no false
// positives.
func TestNotifyGapZeroWhenKeepingUp(t *testing.T) {
	_, _, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

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

// TestBulkSubscribedBatchKeepsUp: a subscribed batch far larger than one
// claim, against a client that keeps up, loses nothing. Five rounds of a
// 2048-word Batch + Wait + Barrier at GOMAXPROCS 1, 2 and 4 each end with
// NotifyDropped 0, a gap of 0 and the client's cache equal to the values
// sent. An outbox that logged words up to a cap shed up to half of each
// round here, because one worker pushes faster than a woken writer swaps.
func TestBulkSubscribedBatchKeepsUp(t *testing.T) {
	const (
		words  = 2048
		rounds = 5
	)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, srv, addr := newServerPair(t,
				core.Config{Backend: core.BackendImmediate, Workers: 1, QueueCapacity: 2 * words})
			cs, err := Dial(addr)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer cs.Close()
			h, err := cs.Attach("bulk", words, 0, words)
			if err == nil {
				err = cs.Subscribe(h)
			}
			if err != nil {
				t.Fatalf("Attach/Subscribe: %v", err)
			}
			vs := make([]mem.Word, words)
			cache := make([]mem.Word, words)
			for round := 1; round <= rounds; round++ {
				for i := range vs {
					vs[i] = mem.Word(round*words + i)
				}
				if changed, err := cs.Batch(h, 0, vs); err != nil || changed != words {
					t.Fatalf("round %d: Batch changed %d of %d, err %v", round, changed, words, err)
				}
				if err := cs.Wait(h); err != nil {
					t.Fatalf("round %d: Wait: %v", round, err)
				}
				if err := cs.Barrier(); err != nil {
					t.Fatalf("round %d: Barrier: %v", round, err)
				}
				for _, n := range cs.Notifies() {
					cache[n.Index] = n.Value
				}
				if gap, dropped := cs.TakeGap(), srv.Counters().NotifyDropped; gap != 0 || dropped != 0 {
					t.Fatalf("round %d: gap %d, NotifyDropped %d; want 0 with the client keeping up", round, gap, dropped)
				}
				for i := range vs {
					if cache[i] != vs[i] {
						t.Fatalf("round %d: cached word %d = %d, want %d", round, i, cache[i], vs[i])
					}
				}
			}
		})
	}
	// The reply boundary: a word changes, a READ is answered, and the word
	// changes again, all before one flush. The second value must not
	// overwrite the first's pending entry, which goes out ahead of the READ
	// reply: the client, applying frames in order, ends with the last value.
	t.Run("reply_boundary", func(t *testing.T) {
		_, srv, addr := newServerPair(t, core.Config{Backend: core.BackendImmediate, Workers: 1})
		conn, fr := rawDial(t, addr)
		defer conn.Close()
		send := func(op byte, payload []byte) {
			t.Helper()
			if _, err := conn.Write(rawFrame(op, payload)); err != nil {
				t.Fatalf("write %s: %v", opName(op), err)
			}
		}
		send(OpAttach, append(append(u32s(1, 0, 1), appendU16(nil, 1)...), 'b'))
		send(OpSubscribe, u32s(0))
		for _, op := range []byte{OpAttach, OpSubscribe} {
			if got, _, err := fr.ReadFrame(); err != nil || got != op {
				t.Fatalf("%s reply: op %d, err %v", opName(op), got, err)
			}
		}
		var sess *session
		srv.mu.Lock()
		for _, s := range srv.sessions {
			sess = s
		}
		srv.mu.Unlock()
		o := sess.out
		// Stand in for a flush in progress: the reader's flushes leave
		// everything queued until this test flushes.
		o.mu.Lock()
		o.flushing = true
		o.mu.Unlock()
		send(OpTStoreBatch, append(u32s(0, 0, 1), appendU64(nil, 1)...))
		send(OpWait, u32s(0))
		send(OpRead, u32s(0, 0, 1))
		send(OpTStoreBatch, append(u32s(0, 0, 1), appendU64(nil, 2)...))
		send(OpWait, u32s(0))
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			o.mu.Lock()
			queued := len(o.replies)
			o.mu.Unlock()
			if queued == 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of 5 replies queued after 5 s", queued)
			}
		}
		o.mu.Lock()
		o.flushing = false
		o.mu.Unlock()
		sess.flush(false)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var word mem.Word
		var ops []string
		for replies := 0; replies < 5; {
			op, payload, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("after %v: %v", ops, err)
			}
			ops = append(ops, opName(op))
			c := cursor{b: payload}
			if op != OpChangeNotify {
				replies++
			}
			switch op {
			case OpChangeNotify:
				ns, _, err := appendNotifies(nil, payload)
				if err != nil || len(ns) != 1 {
					t.Fatalf("CHANGE_NOTIFY: %v, %v", ns, err)
				}
				word = ns[0].Value
			case OpRead:
				c.u32()
				word = c.u64()
			}
		}
		if word != 2 {
			t.Fatalf("frames %v leave the client's word at %d, want the last value 2", ops, word)
		}
	})
}

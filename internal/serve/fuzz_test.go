package serve

import (
	"io"
	"maps"
	"net"
	"runtime"
	"testing"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// chunkReader delivers its bytes in fixed-size chunks, modelling a TCP
// stream that fragments frames at arbitrary boundaries.
type chunkReader struct {
	b     []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n <= 0 {
		n = 1
	}
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.b) {
		n = len(r.b)
	}
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// FuzzFrame fuzzes the frame decoder with an arbitrary byte stream
// delivered in arbitrary-size chunks: it must never panic, never hand
// back a payload longer than the cap, and never grow its buffer past
// MaxFrame no matter what the length prefixes claim. Decoded payloads
// are then walked with the same cursor reads the session handlers use,
// exercising the over-read guard.
func FuzzFrame(f *testing.F) {
	frame := rawFrame
	hello := frame(OpHello, []byte{0x44, 0x54, 0x54, 0x31, 0x00, 0x01})
	f.Add(hello, byte(1))
	f.Add(hello[:3], byte(2))                                     // truncated header
	f.Add(frame(OpAttach, []byte{0, 0, 0, 8})[:7], byte(1))       // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, OpTStoreBatch}, byte(4)) // absurd length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00}, byte(5))          // zero length
	f.Add(frame(250, []byte{1, 2, 3}), byte(3))                   // unknown opcode
	f.Add(append(hello, frame(OpBarrier, nil)...), byte(2))       // interleaved frames
	batch := []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2}
	batch = append(batch, make([]byte, 16)...)
	f.Add(frame(OpTStoreBatch, batch), byte(7))
	update := []byte{0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 2}
	update = append(update, make([]byte, 16)...)
	f.Add(frame(OpTUpdate, update), byte(6))
	// Ranged CHANGE_NOTIFY (wire v3): handle 1, lo 4, dropped 9, n 2 and
	// two words; then the same header claiming more and fewer words than
	// the payload holds, and one claiming 2^32-1.
	notify := []byte{0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0, 2}
	notify = append(notify, make([]byte, 16)...)
	f.Add(frame(OpChangeNotify, notify), byte(5))
	notify[15] = 3
	f.Add(frame(OpChangeNotify, notify), byte(9))
	notify[15] = 1
	f.Add(frame(OpChangeNotify, notify), byte(3))
	copy(notify[12:16], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(frame(OpChangeNotify, notify), byte(200))

	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		fr := newFrameReader(&chunkReader{b: data, chunk: int(chunk)})
		for {
			op, payload, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if len(payload) > MaxFrame-1 {
				t.Fatalf("payload of %d bytes above the cap", len(payload))
			}
			if cap(fr.buf) > MaxFrame {
				t.Fatalf("decode buffer grew to %d, above MaxFrame", cap(fr.buf))
			}
			c := cursor{b: payload}
			switch op {
			case OpHello:
				_, _ = c.u32(), c.u16()
			case OpAttach:
				_, _, _ = c.u32(), c.u32(), c.u32()
				_ = c.take(int(c.u16()))
			case OpTStoreBatch:
				_, _ = c.u32(), c.u32()
				n := c.u32()
				if !c.bad && n <= MaxFrame/8 && len(payload)-c.off == int(n)*8 {
					for i := uint32(0); i < n; i++ {
						_ = c.u64()
					}
					if !c.done() {
						t.Fatal("exact-size batch payload not fully consumed")
					}
				}
			case OpTUpdate:
				_, _, _ = c.u32(), c.u8(), c.u32()
				n := c.u32()
				if !c.bad && n <= MaxFrame/8 && len(payload)-c.off == int(n)*8 {
					for i := uint32(0); i < n; i++ {
						_ = c.u64()
					}
					if !c.done() {
						t.Fatal("exact-size update payload not fully consumed")
					}
				}
			case OpWait, OpSubscribe:
				_, _ = c.u32(), c.u32()
				_ = c.u64()
			case OpChangeNotify:
				// The client's decoder itself: a count that disagrees with
				// the payload length is an error, never a panic, an
				// over-read or a short expansion.
				ns, dropped, err := appendNotifies(nil, payload)
				if err != nil {
					if len(ns) != 0 {
						t.Fatalf("malformed CHANGE_NOTIFY still expanded to %d notifies", len(ns))
					}
					break
				}
				_, lo := c.u32(), c.u32()
				if stamp, n := c.u32(), c.u32(); stamp != dropped || int(n) != len(ns) || len(payload) != notifyFixed+8*len(ns) {
					t.Fatalf("CHANGE_NOTIFY of %d bytes claiming %d words (stamp %d) expanded to %d notifies (stamp %d)",
						len(payload), n, stamp, len(ns), dropped)
				}
				for i, nt := range ns {
					if nt.Index != int(lo)+i || nt.Value != c.u64() || nt.Dropped != dropped {
						t.Fatalf("word %d of the run at %d expanded to %+v", i, lo, nt)
					}
				}
				if !c.done() {
					t.Fatal("exact-size notify payload not fully consumed")
				}
			case OpError:
				_ = c.take(int(c.u16()))
			}
			_ = c.done()
		}
	})
}

// sessionReq encodes one request the way FuzzSession cuts them from its
// input: an opcode byte, a payload length byte, then the payload.
func sessionReq(op byte, fields ...[]byte) []byte {
	var p []byte
	for _, f := range fields {
		p = append(p, f...)
	}
	return append([]byte{op, byte(len(p))}, p...)
}

// u32s is vs in wire order.
func u32s(vs ...uint32) []byte {
	var b []byte
	for _, v := range vs {
		b = appendU32(b, v)
	}
	return b
}

// attachReq is an ATTACH of [lo, hi) of a words-long region named name.
func attachReq(words, lo, hi uint32, name string) []byte {
	return sessionReq(OpAttach, u32s(words, lo, hi), appendU16(nil, uint16(len(name))), []byte(name))
}

// FuzzSession drives one session's state machine with request frames cut
// from the fuzzer's bytes, after a valid HELLO, over net.Pipe. Whatever the
// sequence — unknown handles, bad or huge ATTACHes, truncated payloads,
// opcodes out of order — the server must not panic, Close must return, the
// session must be gone with every region word it allocated back on the free
// list, and the runtime's counter identities must hold once it is quiet.
//
// While the session lives, a final BARRIER ends the input, and its reply
// checks the outbox: it is empty with no request in flight, every
// notification word the session queued reached the client, the client's
// last gap stamp and NotifyDropped are 0, and every word the client
// cached from its notifications equals the region's word.
//
// The first input byte picks the client: when it is odd, the client
// yields between frames, so the support thread's pushes can find their
// words still pending and overwrite them before a swap.
func FuzzSession(f *testing.F) {
	add := func(yield bool, reqs []byte) {
		mode := byte(0)
		if yield {
			mode = 1
		}
		f.Add(append([]byte{mode}, reqs...))
	}
	add(false, attachReq(8, 5, 2, "r"))                                      // inverted range
	add(false, attachReq(1<<30, 0, 1, "r"))                                  // 2^30 words
	add(false, append(attachReq(8, 0, 8, "r"), attachReq(16, 0, 8, "r")...)) // re-ATTACH, other size
	add(false, append(sessionReq(OpTStoreBatch, u32s(7, 0, 1), make([]byte, 8)), sessionReq(OpWait, u32s(7))...))
	var valid []byte
	for _, r := range [][]byte{
		attachReq(8, 0, 8, "r"),
		sessionReq(OpSubscribe, u32s(0)),
		sessionReq(OpTStoreBatch, u32s(0, 2, 2), appendU64(appendU64(nil, 5), 6)),
		sessionReq(OpTUpdate, u32s(0), []byte{byte(core.UpdAdd)}, u32s(0, 1), appendU64(nil, 1)),
		sessionReq(OpWait, u32s(0)),
		sessionReq(OpRead, u32s(0, 0, 8)),
		sessionReq(OpBarrier),
	} {
		valid = append(valid, r...)
	}
	add(false, valid)
	add(true, valid)
	// A subscribed batch of eight changed words to a yielding client.
	shed := append(attachReq(8, 0, 8, "r"), sessionReq(OpSubscribe, u32s(0))...)
	eight := u32s(0, 0, 8)
	for v := uint64(1); v <= 8; v++ {
		eight = appendU64(eight, v)
	}
	shed = append(shed, sessionReq(OpTStoreBatch, eight)...)
	add(true, append(shed, sessionReq(OpWait, u32s(0))...))
	// Batch → Wait → Update → Wait: the first WAIT is the one a client
	// answers from the BATCH reply's quiet stamp; the second must merge the
	// update and run what it fires.
	var joined []byte
	for _, r := range [][]byte{
		attachReq(8, 0, 8, "r"),
		sessionReq(OpSubscribe, u32s(0)),
		sessionReq(OpTStoreBatch, u32s(0, 0, 2), appendU64(appendU64(nil, 3), 4)),
		sessionReq(OpWait, u32s(0)),
		sessionReq(OpTUpdate, u32s(0), []byte{byte(core.UpdAdd)}, u32s(1, 1), appendU64(nil, 9)),
		sessionReq(OpWait, u32s(0)),
	} {
		joined = append(joined, r...)
	}
	add(false, joined)
	// Two subscribed batches to the same eight words before a WAIT: the
	// second's pushes find the first's words pending or already swapped.
	twice := append(attachReq(8, 0, 8, "r"), sessionReq(OpSubscribe, u32s(0))...)
	for round := uint64(0); round < 2; round++ {
		batch := u32s(0, 0, 8)
		for v := uint64(1); v <= 8; v++ {
			batch = appendU64(batch, 10*round+v)
		}
		twice = append(twice, sessionReq(OpTStoreBatch, batch)...)
	}
	add(true, append(twice, sessionReq(OpWait, u32s(0))...))

	// A region may take 1 MiB (maxReadWords), so bound the frames an input
	// sends to bound what one input can allocate.
	const maxReqs = 32
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, srv := newServer(t, core.Config{Backend: core.BackendImmediate, Workers: 1})
		yield := false
		if len(data) > 0 {
			yield = data[0]&1 == 1
			data = data[1:]
		}
		client, server := net.Pipe()
		if !srv.startSession(server) {
			t.Fatal("startSession refused on an open server")
		}
		// The client decodes what it is sent: the notification words, the
		// latest gap stamp and the latest value of each (handle, index), as
		// of each BARRIER reply.
		type tally struct {
			words, stamp int64
			cache        map[[2]int]mem.Word
		}
		barriers := make(chan tally, maxReqs+1)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			defer close(barriers)
			fr := newFrameReader(client)
			tl := tally{cache: map[[2]int]mem.Word{}}
			for {
				if yield {
					runtime.Gosched()
				}
				op, payload, err := fr.ReadFrame()
				if err != nil {
					_, _ = io.Copy(io.Discard, client)
					return
				}
				switch op {
				case OpChangeNotify:
					ns, dropped, err := appendNotifies(nil, payload)
					if err != nil {
						t.Errorf("server sent a malformed CHANGE_NOTIFY: %v", err)
					}
					for _, n := range ns {
						tl.cache[[2]int{int(n.Handle), n.Index}] = n.Value
					}
					tl.words += int64(len(ns))
					tl.stamp = int64(dropped)
				case OpBarrier:
					barriers <- tally{tl.words, tl.stamp, maps.Clone(tl.cache)}
				}
			}
		}()
		hello := rawFrame(OpHello, appendU16(appendU32(nil, Magic), Version))
		if _, err := client.Write(hello); err != nil {
			t.Fatalf("HELLO: %v", err)
		}
		live, sent := true, 0 // sent counts the BARRIER requests written
		for reqs := 0; len(data) >= 2 && reqs < maxReqs; reqs++ {
			op, n := data[0], int(data[1])
			data = data[2:]
			n = min(n, len(data))
			if _, err := client.Write(rawFrame(op, data[:n])); err != nil {
				live = false // the server ended the session
				break
			}
			if op == OpBarrier && n == 0 {
				sent++
			}
			data = data[n:]
		}
		if live {
			_, err := client.Write(rawFrame(OpBarrier, nil))
			live = err == nil
		}
		if live {
			sent++
			var last tally
			for got := 0; got < sent && live; {
				select {
				case tl, ok := <-barriers:
					live = ok // closed: the session ended before the final reply
					got++
					last = tl
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d BARRIER replies within 5 s", got, sent)
				}
			}
			if live {
				var sess *session
				srv.mu.Lock()
				for _, s := range srv.sessions {
					sess = s
				}
				srv.mu.Unlock()
				sess.out.mu.Lock()
				pending, inflight := len(sess.out.replies)+len(sess.out.notes), sess.out.inflight
				sess.out.mu.Unlock()
				if pending != 0 || inflight {
					t.Fatalf("after the final BARRIER reply the outbox holds %d frames, in flight %v; want 0, false", pending, inflight)
				}
				if c := srv.Counters(); last.words != c.Notifies || last.stamp != 0 || c.NotifyDropped != 0 {
					t.Fatalf("client got %d notification words, last gap stamp %d; server queued %d, dropped %d",
						last.words, last.stamp, c.Notifies, c.NotifyDropped)
				}
				// The reader is parked on the next frame: its handle table
				// is the one the BARRIER reply followed.
				for k, v := range last.cache {
					if h := sess.handles[k[0]]; h.region.Load(k[1]) != v {
						t.Fatalf("client caches %d for word %d of handle %d; the region holds %d",
							v, k[1], k[0], h.region.Load(k[1]))
					}
				}
			}
		}
		client.Close()

		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("Server.Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Server.Close did not return within 5 s")
		}
		<-drained
		if c := srv.Counters(); c.Sessions != 0 {
			t.Fatalf("%d sessions live after Close", c.Sessions)
		}
		if sys := rt.System(); sys.FreeBytes() != sys.Footprint() {
			t.Fatalf("%d of %d region bytes still allocated after the session ended", sys.Footprint()-sys.FreeBytes(), sys.Footprint())
		}
		rt.Barrier()
		st := rt.Stats()
		if st.Fired != st.Enqueued+st.Squashed+st.Overflowed || st.Overflowed != st.InlineRuns+st.Dropped {
			t.Fatalf("identities broken after Barrier: %+v", st)
		}
	})
}

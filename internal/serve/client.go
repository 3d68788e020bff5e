package serve

import (
	"bufio"
	"fmt"
	"net"

	"dtt/internal/mem"
)

// Notify is one change notification received from the server: the
// subscribed handle, the changed word's index in its region, and the
// latest value the support thread observed. A word that changes again
// before the server flushes it is sent once, with its latest value, so
// intermediate values may be skipped; no value arrives ahead of a reply
// the server sent after the word first changed. The wire carries runs of
// adjacent words in one CHANGE_NOTIFY frame; the session expands each
// frame back into one Notify per word, in index order.
type Notify struct {
	Handle uint32
	Index  int
	Value  mem.Word
	// Dropped is the session's cumulative count of notifications (words)
	// the server could not deliver, stamped when the frame that carried
	// this word was encoded; every word of one frame shares it. A live
	// session sheds nothing, so it reads 0; only words refused while the
	// session closes count.
	Dropped uint32
}

// Session is a client connection to a dttserve server. It is a
// synchronous single-caller API: each request writes one frame and reads
// until the matching reply, buffering any CHANGE_NOTIFY frames that
// arrive in between (the server writes a batch's notifications before the
// WAIT reply that covers them, or before the batch's own reply when it
// stamps that reply quiet, so after Wait returns, Notifies holds
// everything that batch triggered). A Session is not safe for concurrent
// use; open one per goroutine — sessions are cheap on the server side by
// design.
type Session struct {
	conn    net.Conn
	fr      *frameReader
	bw      *bufio.Writer
	scratch []byte
	id      uint32
	// pending collects notifications until Notifies hands them out;
	// handed is the slice the previous Notifies call returned, reused as
	// the next pending so a steady drain allocates nothing.
	pending []Notify
	handed  []Notify
	// dropped is the highest cumulative dropped count seen on any
	// CHANGE_NOTIFY; gap is the portion not yet acknowledged via
	// TakeGap.
	dropped uint32
	gap     uint32
	// quiet is set when the last request sent was a Batch on handle
	// quietHandle whose reply carried the quiet flag: a Wait on that
	// handle is answered without I/O. Every roundTrip clears it.
	quiet       bool
	quietHandle uint32
}

// Dial connects to a dttserve server and performs the HELLO handshake.
func Dial(addr string) (*Session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newSession(conn)
}

// newSession performs the HELLO handshake over conn, which it owns from
// here on (closed on failure). The session's one frameReader is created
// here and reads the handshake too: read-ahead must never be left behind
// in a discarded reader.
func newSession(conn net.Conn) (*Session, error) {
	s := &Session{conn: conn, fr: newFrameReader(conn), bw: bufio.NewWriter(conn)}
	reply, err := s.roundTrip(OpHello, func(b []byte) []byte {
		b = appendU32(b, Magic)
		return appendU16(b, Version)
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := cursor{b: reply}
	s.id = c.u32()
	if !c.done() {
		conn.Close()
		return nil, fmt.Errorf("serve: malformed HELLO reply of %d bytes", len(reply))
	}
	return s, nil
}

// ID returns the session ID the server assigned at HELLO: unique among the
// server's sessions, counting up from 1, never reused for a later session.
func (s *Session) ID() uint32 { return s.id }

// roundTrip writes one request frame and reads until the reply of the
// same opcode (or an ERROR) arrives, buffering notifications. The
// returned payload is valid until the next read on the session.
func (s *Session) roundTrip(op byte, payload func([]byte) []byte) ([]byte, error) {
	s.quiet = false
	var err error
	s.scratch, _, err = writeFrame(s.bw, s.scratch, op, payload)
	if err != nil {
		return nil, err
	}
	if err := s.bw.Flush(); err != nil {
		return nil, err
	}
	for {
		rop, rp, err := s.fr.ReadFrame()
		if err != nil {
			return nil, err
		}
		switch rop {
		case op:
			return rp, nil
		case OpChangeNotify:
			var dropped uint32
			if s.pending, dropped, err = appendNotifies(s.pending, rp); err != nil {
				return nil, err
			}
			if dropped > s.dropped {
				s.gap += dropped - s.dropped
				s.dropped = dropped
			}
		case OpError:
			c := cursor{b: rp}
			text := string(c.take(int(c.u16())))
			if !c.done() {
				return nil, fmt.Errorf("serve: malformed ERROR frame of %d bytes", len(rp))
			}
			return nil, fmt.Errorf("serve: server error: %s", text)
		default:
			return nil, fmt.Errorf("serve: unexpected %s awaiting %s reply", opName(rop), opName(op))
		}
	}
}

// appendNotifies decodes one ranged CHANGE_NOTIFY payload, appending a
// Notify per word to dst in index order, and returns the frame's dropped
// stamp. A count that disagrees with the payload length is a decode error.
func appendNotifies(dst []Notify, payload []byte) ([]Notify, uint32, error) {
	c := cursor{b: payload}
	handle, lo, dropped, n := c.u32(), c.u32(), c.u32(), c.u32()
	if c.bad || n > maxNotifyRun || len(payload)-c.off != int(n)*8 {
		return dst, 0, fmt.Errorf("serve: malformed CHANGE_NOTIFY of %d bytes", len(payload))
	}
	for i := 0; i < int(n); i++ {
		dst = append(dst, Notify{Handle: handle, Index: int(lo) + i, Value: c.u64(), Dropped: dropped})
	}
	return dst, dropped, nil
}

// u32Reply decodes a single-u32 reply payload.
func u32Reply(op byte, payload []byte) (uint32, error) {
	c := cursor{b: payload}
	v := c.u32()
	if !c.done() {
		return 0, fmt.Errorf("serve: malformed %s reply of %d bytes", opName(op), len(payload))
	}
	return v, nil
}

// emptyReply checks an empty reply payload.
func emptyReply(op byte, payload []byte) error {
	if len(payload) != 0 {
		return fmt.Errorf("serve: malformed %s reply of %d bytes", opName(op), len(payload))
	}
	return nil
}

// Attach asks the server to arm a fresh support thread on words [lo, hi)
// of the session's region named region (created sized words on first
// use), returning the handle for batches, waits and subscription.
func (s *Session) Attach(region string, words, lo, hi int) (uint32, error) {
	if len(region) > 1<<16-1 {
		return 0, fmt.Errorf("serve: region name of %d bytes", len(region))
	}
	reply, err := s.roundTrip(OpAttach, func(b []byte) []byte {
		b = appendU32(b, uint32(words))
		b = appendU32(b, uint32(lo))
		b = appendU32(b, uint32(hi))
		b = appendU16(b, uint16(len(region)))
		return append(b, region...)
	})
	if err != nil {
		return 0, err
	}
	return u32Reply(OpAttach, reply)
}

// Batch issues a TSTORE_BATCH of vs starting at word lo of the handle's
// region and returns how many of the words changed (fired triggers).
func (s *Session) Batch(handle uint32, lo int, vs []mem.Word) (int, error) {
	if headerLen+12+8*len(vs) > MaxFrame {
		return 0, fmt.Errorf("serve: batch of %d words exceeds the frame cap", len(vs))
	}
	reply, err := s.roundTrip(OpTStoreBatch, func(b []byte) []byte {
		b = appendU32(b, handle)
		b = appendU32(b, uint32(lo))
		b = appendU32(b, uint32(len(vs)))
		for _, v := range vs {
			b = appendU64(b, v)
		}
		return b
	})
	if err != nil {
		return 0, err
	}
	changed, err := u32Reply(OpTStoreBatch, reply)
	if err != nil {
		return 0, err
	}
	s.quiet, s.quietHandle = changed&batchQuiet != 0, handle
	return int(changed &^ batchQuiet), nil
}

// Update issues a TUPDATE folding op with operands vs into words starting
// at lo of the handle's region, and returns how many operands the server
// folded (always len(vs) on success). Triggers fire when the server
// merges — at the next Wait/Barrier, or eagerly under the runtime's merge
// policy — not per request.
func (s *Session) Update(handle uint32, lo int, op mem.UpdateOp, vs []mem.Word) (int, error) {
	if headerLen+13+8*len(vs) > MaxFrame {
		return 0, fmt.Errorf("serve: update of %d words exceeds the frame cap", len(vs))
	}
	reply, err := s.roundTrip(OpTUpdate, func(b []byte) []byte {
		b = appendU32(b, handle)
		b = append(b, byte(op))
		b = appendU32(b, uint32(lo))
		b = appendU32(b, uint32(len(vs)))
		for _, v := range vs {
			b = appendU64(b, v)
		}
		return b
	})
	if err != nil {
		return 0, err
	}
	applied, err := u32Reply(OpTUpdate, reply)
	return int(applied), err
}

// Wait blocks until the handle's support thread has quiesced; every
// notification its runs produced is buffered in Notifies when it returns.
// When the last request sent was a Batch on handle whose reply the server
// stamped quiet, the server already made this join, and the batch's
// notifications arrived ahead of that reply: Wait returns at once, with no
// I/O.
func (s *Session) Wait(handle uint32) error {
	if s.quiet && s.quietHandle == handle {
		return nil
	}
	reply, err := s.roundTrip(OpWait, func(b []byte) []byte { return appendU32(b, handle) })
	if err != nil {
		return err
	}
	return emptyReply(OpWait, reply)
}

// Barrier blocks until every support thread of this session has quiesced.
func (s *Session) Barrier() error {
	reply, err := s.roundTrip(OpBarrier, nil)
	if err != nil {
		return err
	}
	return emptyReply(OpBarrier, reply)
}

// Subscribe turns on CHANGE_NOTIFY streaming for the handle's thread.
func (s *Session) Subscribe(handle uint32) error {
	reply, err := s.roundTrip(OpSubscribe, func(b []byte) []byte { return appendU32(b, handle) })
	if err != nil {
		return err
	}
	return emptyReply(OpSubscribe, reply)
}

// Read returns a point-in-time copy of words [lo, lo+n) of the handle's
// region, merged truth included (the server folds any pending
// commutative-update deltas before reading). A subscriber reads with it
// the words that changed before it subscribed, and recovers with it after
// TakeGap reports lost notifications.
func (s *Session) Read(handle uint32, lo, n int) ([]mem.Word, error) {
	// The reply frame carries opcode + count u32 + n words and must fit
	// under MaxFrame.
	if n < 0 || n > (MaxFrame-5)/8 {
		return nil, fmt.Errorf("serve: read of %d words exceeds the frame cap", n)
	}
	reply, err := s.roundTrip(OpRead, func(b []byte) []byte {
		b = appendU32(b, handle)
		b = appendU32(b, uint32(lo))
		return appendU32(b, uint32(n))
	})
	if err != nil {
		return nil, err
	}
	c := cursor{b: reply}
	count := int(c.u32())
	if count != n {
		return nil, fmt.Errorf("serve: READ reply carries %d words, want %d", count, n)
	}
	ws := make([]mem.Word, count)
	for i := range ws {
		ws[i] = c.u64()
	}
	if !c.done() {
		return nil, fmt.Errorf("serve: malformed READ reply of %d bytes", len(reply))
	}
	return ws, nil
}

// Notifies drains and returns the notifications buffered so far, in
// arrival order. Each notify carries the session's cumulative dropped
// count as of its frame's encoding; TakeGap folds the same information
// into a single "how many did I miss since I last asked" answer. The
// returned slice is valid until the next Notifies call, which recycles
// it: copy what must outlive that.
func (s *Session) Notifies() []Notify {
	n := s.pending
	s.pending, s.handed = s.handed[:0], n
	return n
}

// Dropped returns the highest cumulative dropped count observed on any
// notification so far: the server-side dtt_serve_notify_dropped
// contribution of this session, seen from the client. The server drops
// only words it could not deliver while the session closed, so on a live
// session this reads 0.
func (s *Session) Dropped() uint32 { return s.dropped }

// TakeGap returns how much the dropped count has grown since the previous
// TakeGap call (or since Dial), and resets the gap. The server drops only
// words a closing session could not deliver, so this reads 0 while the
// session lives; a nonzero return means the subscriber's derived state
// may be stale: re-establish it with Read before trusting it.
func (s *Session) TakeGap() uint32 {
	g := s.gap
	s.gap = 0
	return g
}

// Close closes the connection. The server cancels the session's support
// threads and releases its namespace.
func (s *Session) Close() error { return s.conn.Close() }

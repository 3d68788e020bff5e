package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/telemetry"
)

// msg is one queued reply frame. Replies are small and fixed-shape, so
// an outbox entry is a flat struct — no per-message allocation, and the
// flush encodes straight out of the slot.
type msg struct {
	op byte
	a  uint32     // first u32 payload field (handle, changed count, ...)
	at int        // the reply goes out after the first at notes of its swap
	s  string     // ERROR message
	ws []mem.Word // READ reply words (reader-owned copy; READ is off the hot path)
}

// note is one pending notification: the latest value a subscribed word's
// support thread saw, and the arrival stamp of the batch that first
// dirtied it, for the latency histogram.
type note struct {
	h     *attachHandle
	index uint32
	v     mem.Word
	t0    int64
}

// outbox is a session's mailbox: the per-session dual of the runtime's
// thread queue, with its rule. A subscribed word that is already waiting
// for a flush is overwritten in place, not queued twice — each attached
// word has a slot (attachHandle.slots), 0 when clean, else 1 plus its
// entry's position in notes. So between two replies the notifications a
// session holds are bounded by the words it attached, and nothing is shed
// while it lives.
// The overwrite stops at a reply: a word whose entry was queued before
// the last reply push gets a new entry, so no value overtakes a reply
// (a READ snapshot, a WAIT) pushed after the word first changed. The
// client sees each changed word's latest value at least once per flush,
// and never ahead of a later reply; intermediate values may be skipped.
//
// Producers (the session's reader, and any support-thread body pushing a
// notification) append under the lock; a flush (session.flush) swaps both
// lists out, clearing the slots of the notes it takes, and encodes them
// without holding the lock — the double-buffer discipline of the mailbox
// exemplars, so a slow client never blocks a worker beyond one short
// critical section.
//
// One flush function has two callers. The reader flushes right after it
// pushes each reply, on its own goroutine; the writer goroutine flushes
// the notifications that arrive outside a request. A request is in flight
// from the moment the reader takes its frame (begin) to its reply's push,
// which clears the flag in the same critical section; a notification
// pushed meanwhile wakes nobody and rides out with that reply. Every
// request frame ends in exactly one reply push or in the session's close,
// and close wakes the writer, which then flushes whatever is held, so a
// held notification always reaches the wire. A flush that finds another
// in progress leaves, since that one swaps until the outbox is empty: the
// swaps stay in push order, and the frames of one swap go out in one
// write.
//
// Only a closed outbox refuses a word, counted in dropped. Every
// CHANGE_NOTIFY frame still carries that count (wire v4's stamp), which
// on a live session reads 0.
type outbox struct {
	mu sync.Mutex
	// replies and notes are the pending batch; spareReplies and
	// spareNotes are their other halves, swapped together.
	replies      []msg  //dtt:guards mu
	spareReplies []msg  //dtt:guards mu
	notes        []note //dtt:guards mu
	spareNotes   []note //dtt:guards mu
	// inflight is set while a request is in flight: from begin to its
	// reply's push.
	inflight bool //dtt:guards mu
	// flushing is set while a flush owns the connection's writes.
	flushing bool //dtt:guards mu
	// dropped counts the words a closed outbox refused; atomic because a
	// flush stamps it and Counters reads it without the lock.
	dropped atomic.Int64
	wake    chan struct{}
	closed  bool //dtt:guards mu
}

func newOutbox() *outbox {
	return &outbox{wake: make(chan struct{}, 1)}
}

// begin marks a request in flight: until its reply's push, notifications
// wait for that reply's flush.
func (o *outbox) begin() {
	o.mu.Lock()
	o.inflight = true
	o.mu.Unlock()
}

// push enqueues the reply m, which ends the request in flight; its pusher
// flushes. Returns false when the outbox is closed.
func (o *outbox) push(m msg) bool {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return false
	}
	m.at = len(o.notes)
	o.replies = append(o.replies, m)
	o.inflight = false
	o.mu.Unlock()
	return true
}

// pushNotify records v as the latest value of word index of h, which is
// subscribed. A word already pending since the last reply push takes the
// new value in place; otherwise the word is queued, waking the writer
// when no request is in flight. It reports whether it queued a new word:
// false for an overwrite, and for a word the closed outbox refused, which
// it counts in dropped.
func (o *outbox) pushNotify(h *attachHandle, index uint32, v mem.Word, t0 int64) bool {
	o.mu.Lock()
	if o.closed {
		o.dropped.Add(1)
		o.mu.Unlock()
		return false
	}
	slot := &h.slots[index-h.lo]
	// A slot past the last reply's position names a note no reply follows.
	if k := len(o.replies); *slot != 0 && (k == 0 || int(*slot) > o.replies[k-1].at) {
		o.notes[*slot-1].v = v
		o.mu.Unlock()
		return false
	}
	o.notes = append(o.notes, note{h: h, index: index, v: v, t0: t0})
	*slot = uint32(len(o.notes))
	wake := !o.inflight
	o.mu.Unlock()
	if wake {
		o.signal()
	}
	return true
}

// signal wakes the writer if it is not already due to wake.
func (o *outbox) signal() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// swapLocked hands a flush the pending batch (into the spare buffers) and
// marks the words it takes clean. The returned slices are the flush's
// until the next swap. Callers hold mu.
func (o *outbox) swapLocked() (replies []msg, notes []note) {
	replies, o.replies = o.replies, o.spareReplies[:0]
	o.spareReplies = replies
	notes, o.notes = o.notes, o.spareNotes[:0]
	o.spareNotes = notes
	for _, n := range notes {
		n.h.slots[n.index-n.h.lo] = 0
	}
	return replies, notes
}

// close marks the outbox closed and wakes the writer so it can flush what
// is held and exit. Messages already queued are still written.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.signal()
}

// attachHandle is one ATTACH's server-side state: the support thread, the
// region and words [lo, hi) it watches, its wire number, and whether the
// client subscribed to its outputs. ThreadFunc closures capture the handle
// pointer, so a concurrent append to the session's handle table never
// races a firing trigger.
type attachHandle struct {
	thread     core.ThreadID
	region     *core.Region
	id, lo, hi uint32
	subscribed atomic.Bool
	// slots holds one outbox slot per attached word, allocated by the
	// first SUBSCRIBE (see outbox).
	slots []uint32 //dtt:guards outbox.mu
}

// session is one accepted connection: a reader goroutine decoding and
// handling request frames and flushing each reply, a writer goroutine
// flushing the notifications that arrive outside a request, and a
// connection-scoped namespace giving the tenant its own regions and
// threads.
type session struct {
	srv  *Server
	id   int
	conn net.Conn
	ns   *core.Namespace
	out  *outbox

	// reader-goroutine state (single-threaded, no lock).
	fr      *frameReader
	handles []*attachHandle
	words   []mem.Word

	// The connection's writes and the encode scratch belong to the flush
	// in progress (outbox.flushing): the reader's or the writer
	// goroutine's. broken is set once a write fails: the peer is gone, and
	// later flushes swallow what they swap until the session closes.
	scratch []byte
	broken  bool

	// batchT0 is the arrival stamp of the most recent TSTORE_BATCH,
	// read by support threads when they queue a notification.
	batchT0 atomic.Int64

	// counters mirrored into Server.Counters on retirement and readable
	// live; atomics because reader, writer and workers all touch them.
	framesIn, framesOut atomic.Int64
	bytesIn, bytesOut   atomic.Int64
	batches, stores     atomic.Int64
	updates             atomic.Int64
	changed, notifies   atomic.Int64
	errors              atomic.Int64
}

// run is the reader goroutine: handshake, then one frame at a time until
// the peer disconnects, a framing violation occurs, or the server closes
// the connection under it. Teardown order matters: cancel the namespace's
// threads first (no new notifications), then close the outbox (the
// writer flushes what is held and exits), then the connection.
func (s *session) run() {
	defer func() {
		s.ns.Close()
		s.out.close()
		s.conn.Close()
		s.srv.removeSession(s)
	}()
	if err := s.handshake(); err != nil {
		return
	}
	for {
		op, payload, err := s.readFrame()
		if err != nil {
			return
		}
		s.out.begin()
		if !s.handle(op, payload) {
			return
		}
	}
}

// readFrame wraps the frame reader with the session's byte/frame counters.
func (s *session) readFrame() (byte, []byte, error) {
	op, payload, err := s.fr.ReadFrame()
	if err != nil {
		return 0, nil, err
	}
	s.framesIn.Add(1)
	s.bytesIn.Add(int64(headerLen + len(payload)))
	return op, payload, nil
}

// handshake requires the first frame to be a well-formed HELLO and
// answers it with the session ID. Anything else closes the connection —
// before HELLO there is no session to report an error to.
func (s *session) handshake() error {
	op, payload, err := s.readFrame()
	if err != nil {
		return err
	}
	c := cursor{b: payload}
	magic, version := c.u32(), c.u16()
	if op != OpHello || !c.done() || magic != Magic {
		return fmt.Errorf("serve: handshake: expected HELLO, got %s", opName(op))
	}
	if version != Version {
		return fmt.Errorf("serve: handshake: protocol version %d, want %d", version, Version)
	}
	s.reply(msg{op: OpHello, a: uint32(s.id)})
	return nil
}

// handle dispatches one post-handshake request. It returns false when the
// connection must close (framing violations); semantic failures push an
// ERROR reply and keep the session alive.
func (s *session) handle(op byte, payload []byte) bool {
	c := cursor{b: payload}
	switch op {
	case OpAttach:
		words, lo, hi := c.u32(), c.u32(), c.u32()
		name := string(c.take(int(c.u16())))
		if !c.done() {
			return false
		}
		s.handleAttach(words, lo, hi, name)
	case OpTStoreBatch:
		handle, lo, n := c.u32(), c.u32(), c.u32()
		if c.bad || n > MaxFrame/8 || len(payload)-c.off != int(n)*8 {
			return false
		}
		s.handleBatch(handle, lo, int(n), &c)
	case OpTUpdate:
		handle, uop, lo, n := c.u32(), c.u8(), c.u32(), c.u32()
		if c.bad || n > MaxFrame/8 || len(payload)-c.off != int(n)*8 {
			return false
		}
		s.handleUpdate(handle, uop, lo, int(n), &c)
	case OpWait:
		handle := c.u32()
		if !c.done() {
			return false
		}
		if h := s.lookup(handle, OpWait); h != nil {
			// Wait blocks until the thread quiesces; every notification
			// its runs queued is in the mailbox before this reply, so the
			// client observes notifies-then-reply in FIFO order.
			s.ns.Wait(h.thread)
			s.reply(msg{op: OpWait})
		}
	case OpBarrier:
		if !c.done() {
			return false
		}
		s.ns.Barrier()
		s.reply(msg{op: OpBarrier})
	case OpSubscribe:
		handle := c.u32()
		if !c.done() {
			return false
		}
		if h := s.lookup(handle, OpSubscribe); h != nil {
			if h.slots == nil {
				h.slots = make([]uint32, h.hi-h.lo)
			}
			h.subscribed.Store(true)
			s.reply(msg{op: OpSubscribe})
		}
	case OpRead:
		handle, lo, n := c.u32(), c.u32(), c.u32()
		// The reply (count u32 + n words) must itself fit under MaxFrame.
		if !c.done() || n > maxReadWords {
			return false
		}
		s.handleRead(handle, lo, int(n))
	default:
		// HELLO twice, a server-side opcode from a client, or an unknown
		// opcode: framing violation.
		return false
	}
	return true
}

// handleAttach creates (or reopens) the named region sized words, arms a
// fresh support thread on [lo, hi) of it, and replies with the handle.
// The thread body publishes the changed word as a CHANGE_NOTIFY when the
// handle is subscribed.
func (s *session) handleAttach(words, lo, hi uint32, name string) {
	// words is the peer's u32, and the region is allocated whole: refuse
	// before allocating what one READ could not return, or a single frame
	// asking for 2^32 words kills the process with every session in it.
	if words > maxReadWords {
		s.sendErr(fmt.Sprintf("serve: ATTACH region %q of %d words exceeds %d", name, words, maxReadWords))
		return
	}
	r, err := s.ns.Region(name, int(words))
	if err != nil {
		s.sendErr(err.Error())
		return
	}
	// Reject a bad range before Register, not after: a thread registered for
	// an ATTACH that then fails stays in the namespace — and in the runtime's
	// thread table — until the session ends, so a peer looping bad ranges
	// would grow both without bound.
	if lo >= hi || int(hi) > r.Len() {
		s.sendErr(fmt.Sprintf("serve: ATTACH range [%d, %d) outside region %q of %d words", lo, hi, name, r.Len()))
		return
	}
	h := &attachHandle{region: r, id: uint32(len(s.handles)), lo: lo, hi: hi}
	tid, err := s.ns.Register(fmt.Sprintf("%s#%d", name, h.id), func(tg core.Trigger) {
		if !h.subscribed.Load() {
			return
		}
		if s.out.pushNotify(h, uint32(tg.Index), tg.Region.Load(tg.Index), s.batchT0.Load()) {
			s.notifies.Add(1)
		}
	})
	if err != nil {
		s.sendErr(err.Error())
		return
	}
	h.thread = tid
	if err := s.ns.Attach(tid, r, int(lo), int(hi)); err != nil {
		s.sendErr(err.Error())
		return
	}
	s.handles = append(s.handles, h)
	s.reply(msg{op: OpAttach, a: h.id})
}

// handleBatch decodes the span into the session's reused word buffer and
// funnels it through TStoreBatchJoin — one registry snapshot and one
// dispatch lock acquisition for the whole wire batch, then, when the
// thread's backlog fits one claim, its join on this goroutine. The join
// runs the bodies here (they only push notifications), so their
// notifications are in the mailbox ahead of the reply and leave in the
// reply's flush, and no worker is woken for them. The reply then carries
// the quiet flag: the thread was quiet after the join and stays quiet
// until this reader's next request, because the session's regions are its
// own, its bodies store nothing, and the join merged every pending delta.
// The client answers a WAIT on the handle from that flag. A larger backlog
// is what admission woke a worker for, so its reply does not wait for the
// run, and its notifications stream out through the writer.
func (s *session) handleBatch(handle, lo uint32, n int, c *cursor) {
	h := s.lookup(handle, OpTStoreBatch)
	if h == nil {
		return
	}
	if n == 0 {
		s.reply(msg{op: OpTStoreBatch})
		return
	}
	if int(lo)+n > h.region.Len() {
		s.sendErr(fmt.Sprintf("serve: TSTORE_BATCH span [%d, %d) outside region of %d words", lo, int(lo)+n, h.region.Len()))
		return
	}
	if cap(s.words) < n {
		s.words = make([]mem.Word, n)
	}
	s.words = s.words[:n]
	for i := range s.words {
		s.words[i] = c.u64()
	}
	s.batchT0.Store(telemetry.Now())
	changed, quiet := h.region.TStoreBatchJoin(int(lo), s.words, h.thread)
	s.batches.Add(1)
	s.stores.Add(int64(n))
	s.changed.Add(int64(changed))
	a := uint32(changed)
	if quiet {
		a |= batchQuiet
	}
	s.reply(msg{op: OpTStoreBatch, a: a})
}

// handleUpdate decodes the operand span and folds it through TUpdateBatch:
// the commutative-update analogue of handleBatch. The reply acknowledges
// the n operands folded; triggers fire later, at the merge (Wait/Barrier,
// or a Load or READ of the region), so unlike TSTORE_BATCH there is no
// changed count to report yet.
func (s *session) handleUpdate(handle uint32, uop byte, lo uint32, n int, c *cursor) {
	h := s.lookup(handle, OpTUpdate)
	if h == nil {
		return
	}
	op := mem.UpdateOp(uop)
	if !op.Valid() {
		s.sendErr(fmt.Sprintf("serve: TUPDATE with invalid op %d", uop))
		return
	}
	if n == 0 {
		s.reply(msg{op: OpTUpdate})
		return
	}
	if int(lo)+n > h.region.Len() {
		s.sendErr(fmt.Sprintf("serve: TUPDATE span [%d, %d) outside region of %d words", lo, int(lo)+n, h.region.Len()))
		return
	}
	if cap(s.words) < n {
		s.words = make([]mem.Word, n)
	}
	s.words = s.words[:n]
	for i := range s.words {
		s.words[i] = c.u64()
	}
	s.batchT0.Store(telemetry.Now())
	h.region.TUpdateBatch(int(lo), op, s.words)
	s.updates.Add(int64(n))
	s.reply(msg{op: OpTUpdate, a: uint32(n)})
}

// handleRead replies with a point-in-time copy of [lo, lo+n) of the
// handle's region. Load merges any pending update-plane deltas first, so
// the words a recovering subscriber reads are the merged truth its lost
// notifications were about. The copy is a fresh allocation per request —
// READ is the recovery path, not the hot path, and the reply msg outlives
// this handler's reused buffers.
func (s *session) handleRead(handle, lo uint32, n int) {
	h := s.lookup(handle, OpRead)
	if h == nil {
		return
	}
	if int(lo)+n > h.region.Len() {
		s.sendErr(fmt.Sprintf("serve: READ span [%d, %d) outside region of %d words", lo, int(lo)+n, h.region.Len()))
		return
	}
	ws := make([]mem.Word, n)
	for i := range ws {
		ws[i] = h.region.Load(int(lo) + i)
	}
	s.reply(msg{op: OpRead, a: uint32(n), ws: ws})
}

// lookup resolves a client handle, pushing an ERROR reply when it is out
// of range.
func (s *session) lookup(handle uint32, op byte) *attachHandle {
	if int(handle) >= len(s.handles) {
		s.sendErr(fmt.Sprintf("serve: %s with unknown handle %d", opName(op), handle))
		return nil
	}
	return s.handles[handle]
}

// reply pushes the reply of the request in flight and flushes it, with
// every notification the request held, on the reader's goroutine.
func (s *session) reply(m msg) {
	if s.out.push(m) {
		s.flush(false)
	}
}

func (s *session) sendErr(text string) {
	s.errors.Add(1)
	s.reply(msg{op: OpError, s: text})
}

// appendMsg encodes the reply m as one frame onto dst.
func appendMsg(dst []byte, m *msg) []byte {
	dst, start := appendFrameHeader(dst, m.op)
	switch m.op {
	case OpHello, OpAttach, OpTStoreBatch, OpTUpdate:
		dst = appendU32(dst, m.a)
	case OpWait, OpBarrier, OpSubscribe:
		// empty payload
	case OpRead:
		dst = appendU32(dst, m.a)
		for _, w := range m.ws {
			dst = appendU64(dst, w)
		}
	case OpError:
		dst = appendU16(dst, uint16(len(m.s)))
		dst = append(dst, m.s...)
	}
	patchFrameLength(dst, start)
	return dst
}

// appendNotes encodes notes as CHANGE_NOTIFY frames onto dst, cutting a
// run at each break in adjacency — another handle, or an index that is
// not the next — and at the frame cap. Every frame carries the stamp
// dropped; each run's latency, from its first word's t0 to its encoding,
// goes to lat. It returns the grown dst and the frames appended.
func appendNotes(dst []byte, notes []note, dropped uint32, lat *telemetry.Histogram) ([]byte, int) {
	if len(notes) == 0 {
		return dst, 0
	}
	now, frames := telemetry.Now(), 0
	for len(notes) > 0 {
		n := 1
		for n < len(notes) && n < maxNotifyRun && notes[n].h == notes[0].h && notes[n].index == notes[0].index+uint32(n) {
			n++
		}
		var start int
		dst, start = appendFrameHeader(dst, OpChangeNotify)
		dst = appendU32(dst, notes[0].h.id)
		dst = appendU32(dst, notes[0].index)
		dst = appendU32(dst, dropped)
		dst = appendU32(dst, uint32(n))
		for _, w := range notes[:n] {
			dst = appendU64(dst, w.v)
		}
		patchFrameLength(dst, start)
		lat.Observe(now - notes[0].t0)
		notes = notes[n:]
		frames++
	}
	return dst, frames
}

// writeLoop is the writer goroutine. It flushes only what the reader will
// not: notifications pushed while no request is in flight, and whatever is
// held when the outbox closes. It exits once it has flushed after the
// close.
func (s *session) writeLoop() {
	defer s.srv.wg.Done()
	for range s.out.wake {
		if s.flush(true) {
			return
		}
	}
}

// flush is the outbox's one flush, for its two callers: the reader after
// each reply push (writer false) and the writer goroutine (writer true),
// which leaves the outbox to the reply's flush while a request is in
// flight. Unless another flush is in progress it owns the connection's
// writes, swaps the outbox and encodes the batch into the reused scratch —
// each reply after the notes queued before its push — one write per swap,
// until a swap finds the outbox empty: a burst of notifications and the
// reply behind them cost one syscall, not one per frame. It reports
// whether the outbox is closed.
func (s *session) flush(writer bool) (closed bool) {
	o := s.out
	o.mu.Lock()
	if o.flushing || writer && o.inflight && !o.closed {
		closed = o.closed
		o.mu.Unlock()
		return closed
	}
	o.flushing = true
	for len(o.replies)+len(o.notes) > 0 {
		replies, notes := o.swapLocked()
		o.mu.Unlock()
		if !s.broken { // else the peer is gone: swallow the swap
			dropped := uint32(o.dropped.Load())
			b, frames, done := s.scratch[:0], 0, 0
			for i := range replies {
				var k int
				b, k = appendNotes(b, notes[done:replies[i].at], dropped, s.srv.notifyLat)
				b, done = appendMsg(b, &replies[i]), replies[i].at
				frames += k + 1
			}
			b, k := appendNotes(b, notes[done:], dropped, s.srv.notifyLat)
			s.scratch = b
			// Counted before the write, so a client that has read the
			// frames finds them in Counters.
			s.framesOut.Add(int64(frames + k))
			s.bytesOut.Add(int64(len(b)))
			if _, err := s.conn.Write(b); err != nil {
				s.broken = true
			}
		}
		o.mu.Lock()
	}
	o.flushing = false
	closed = o.closed
	o.mu.Unlock()
	return closed
}

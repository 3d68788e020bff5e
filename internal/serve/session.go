package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/telemetry"
)

// msg is one queued outbound frame. Frames on this plane are small and
// fixed-shape, so a mailbox entry is a flat struct — no per-message
// allocation, and the writer encodes straight out of the slot.
type msg struct {
	op   byte
	a, b uint32     // first/second u32 payload fields (handle, lo, ...)
	n    uint32     // CHANGE_NOTIFY: words in the run
	off  uint32     // CHANGE_NOTIFY: the run is vals[off:off+n] of its batch's arena
	t0   int64      // CHANGE_NOTIFY: batch arrival stamp of the run's first word, for the latency histogram
	s    string     // ERROR message
	ws   []mem.Word // READ reply words (reader-owned copy; READ is off the hot path)
}

// outbox is a session's mailbox: the per-session dual of the runtime's
// thread queue. Producers (the session's reader goroutine and any
// support-thread body firing a notification) append under the mailbox
// lock; a flush (session.flush) swaps the full buffer out and encodes it
// without holding the lock — the same double-buffer discipline the
// mailbox exemplars use, so a slow client connection never blocks a
// worker beyond one short critical section.
//
// One flush function has two callers. The reader flushes right after it
// pushes each reply, on its own goroutine; the writer goroutine flushes
// the notifications that arrive outside a request or past its hold. A
// request is in flight from the moment the reader takes its frame (begin)
// to its reply's push, which clears the flag in the same critical section;
// a notification pushed meanwhile wakes nobody and rides out with that
// reply, up to hold words — one Wait claim, and never more than half the
// mailbox. The word past the hold wakes the writer, which flushes as it
// would with no request in flight, so a long WAIT or a large batch streams
// its notifications to a client that keeps up instead of shedding them at
// cap. Every request frame ends in exactly one reply push or in the
// session's close, and close wakes the writer, which then flushes whatever
// is held, so a held notification always reaches the wire. A flush that
// finds another in progress leaves, since that one swaps until the outbox
// is empty: the swaps stay in push order, and the frames of one request go
// out in one write.
//
// Notifications coalesce in the mailbox, under the lock the push already
// takes: a changed word that extends the tail CHANGE_NOTIFY's run (same
// handle, next index) joins that frame — its value goes to the vals
// arena, which is double-buffered with buf, and the tail's n grows — so a
// burst of adjacent words costs one slot, one header and one client
// decode, not one of each per word. Anything else (another handle, a gap,
// a descending or repeated index, a reply in between) starts a new frame,
// so the client's expansion of the frames is exactly the per-word stream
// in push order.
//
// Replies are never dropped: the client is waiting on them and they are
// bounded by requests in flight (one each). Notifications are
// fire-and-forget and are dropped once the mailbox holds cap words of
// them, counted in dropped — backpressure by shedding, not by stalling
// the dispatch plane. Shedding is never silent on the wire: every
// CHANGE_NOTIFY frame carries the session's cumulative dropped count,
// stamped once at encode time (see flush), so a subscriber that lost
// notifications learns it from the very next frame it receives. Before
// close a word can only be dropped while buf already holds cap >= 1
// pending words — at least one CHANGE_NOTIFY frame — and the drop is
// counted under mu before the swap that hands that frame to a flush can
// take mu, so the frame's stamp, read after the swap, includes the drop:
// every drop is followed onto the wire by a stamp that counts it. (After
// close there is no wire left to announce on; those words are counted all
// the same.) The cap therefore counts notification words only: were
// queued replies to count against it, a burst shed behind cap replies
// would have no stamp behind it and the gap would stay invisible until
// the next notification.
type outbox struct {
	mu    sync.Mutex
	buf   []msg //dtt:guards mu
	spare []msg //dtt:guards mu
	// vals is the arena the CHANGE_NOTIFY runs of buf index into;
	// spareVals is its other half, swapped together with buf/spare.
	vals      []mem.Word //dtt:guards mu
	spareVals []mem.Word //dtt:guards mu
	// notes counts the droppable words in buf.
	notes int //dtt:guards mu
	// inflight is set while a request is in flight: from begin to its
	// reply's push.
	inflight bool //dtt:guards mu
	// hold is how many notification words a request in flight keeps for
	// its reply's flush.
	hold int
	// flushing is set while a flush owns the connection's writer.
	flushing bool //dtt:guards mu
	// dropped is the cumulative count of words shed, at cap or after
	// close. Written under mu (that ordering is the stamp argument
	// above); atomic because a flush stamps it and Counters reads it
	// without the lock.
	dropped atomic.Int64
	wake    chan struct{}
	closed  bool //dtt:guards mu
	cap     int
}

func newOutbox(capacity int) *outbox {
	return &outbox{wake: make(chan struct{}, 1), cap: capacity, hold: min(core.WaitHelpMax, capacity/2)}
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
	o.buf = append(o.buf, m)
	o.inflight = false
	o.mu.Unlock()
	return true
}

// pushNotify enqueues one changed word of handle, extending the tail
// frame's run when the word is adjacent to it, and wakes the writer for a
// new frame when no request is in flight, or for the word past the
// request's hold. Returns false when the word was shed — at cap, or
// because the outbox is closed — and counts it in dropped.
func (o *outbox) pushNotify(handle, index uint32, v mem.Word, t0 int64) bool {
	o.mu.Lock()
	if o.closed || o.notes >= o.cap {
		o.dropped.Add(1)
		o.mu.Unlock()
		return false
	}
	o.notes++
	o.vals = append(o.vals, v)
	// The word past a request's hold releases what it holds to the writer.
	release := o.inflight && o.notes == o.hold+1
	if k := len(o.buf) - 1; k >= 0 {
		tail := &o.buf[k]
		if tail.op == OpChangeNotify && tail.a == handle && tail.b+tail.n == index && tail.n < maxNotifyRun {
			// The tail's flush is still due — its wake is pending, or its
			// request's reply will carry it: no new slot, and no second
			// wake unless this word releases the hold.
			tail.n++
			o.mu.Unlock()
			if release {
				o.signal()
			}
			return true
		}
	}
	o.buf = append(o.buf, msg{op: OpChangeNotify, a: handle, b: index, n: 1, off: uint32(len(o.vals) - 1), t0: t0})
	wake := !o.inflight || release
	o.mu.Unlock()
	if wake {
		o.signal()
	}
	return true
}

// heldLocked reports whether the request in flight holds buf's
// notifications for its reply's flush. Callers hold mu.
func (o *outbox) heldLocked() bool {
	return o.inflight && o.notes <= o.hold && !o.closed
}

// signal wakes the writer if it is not already due to wake.
func (o *outbox) signal() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// swapLocked hands a flush the pending batch and its value arena (into the
// spare buffers). The returned slices are the flush's until the next swap.
// Callers hold mu.
func (o *outbox) swapLocked() (batch []msg, vals []mem.Word) {
	batch, o.buf = o.buf, o.spare[:0]
	o.spare = batch
	vals, o.vals = o.vals, o.spareVals[:0]
	o.spareVals = vals
	o.notes = 0
	return batch, vals
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
// region it watches, and whether the client subscribed to its outputs.
// ThreadFunc closures capture the handle pointer, so a concurrent append
// to the session's handle table never races a firing trigger.
type attachHandle struct {
	thread     core.ThreadID
	region     *core.Region
	subscribed atomic.Bool
}

// session is one accepted connection: a reader goroutine decoding and
// handling request frames and flushing each reply, a writer goroutine
// flushing the notifications that arrive outside a request or past its
// hold, and a connection-scoped namespace giving the tenant its own
// regions and threads.
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

	// The connection's writer and its encode scratch belong to the flush
	// in progress (outbox.flushing): the reader's or the writer
	// goroutine's. broken is set once a write fails: the peer is gone, and
	// later flushes swallow what they swap until the session closes.
	bw      *bufio.Writer
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
	h := &attachHandle{region: r}
	handle := uint32(len(s.handles))
	tid, err := s.ns.Register(fmt.Sprintf("%s#%d", name, handle), func(tg core.Trigger) {
		if !h.subscribed.Load() {
			return
		}
		if s.out.pushNotify(handle, uint32(tg.Index), tg.Region.Load(tg.Index), s.batchT0.Load()) {
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
	s.reply(msg{op: OpAttach, a: handle})
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
// run, and its notifications stream out through the writer past the hold.
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

// appendMsg encodes m as one frame onto dst. vals is the arena m's batch
// was swapped out with; dropped is the stamp a CHANGE_NOTIFY carries.
func appendMsg(dst []byte, m *msg, vals []mem.Word, dropped uint32) []byte {
	dst, start := appendFrameHeader(dst, m.op)
	switch m.op {
	case OpHello, OpAttach, OpTStoreBatch, OpTUpdate:
		dst = appendU32(dst, m.a)
	case OpWait, OpBarrier, OpSubscribe:
		// empty payload
	case OpChangeNotify:
		dst = appendU32(dst, m.a)
		dst = appendU32(dst, m.b)
		dst = appendU32(dst, dropped)
		dst = appendU32(dst, m.n)
		for _, w := range vals[m.off : m.off+m.n] {
			dst = appendU64(dst, w)
		}
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

// writeLoop is the writer goroutine. It flushes only what the reader will
// not: notifications pushed while no request is in flight or past a
// request's hold, and whatever is held when the outbox closes. It exits
// once it has flushed after the close.
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
// which leaves the outbox to the reply's flush while a request in flight
// holds it. Unless another flush is in progress it owns the connection's
// writer, swaps the outbox and encodes the batch into the reused scratch,
// one write per swap, until a swap finds the outbox empty — so a burst of
// notifications and the reply behind them cost one syscall, not one per
// frame. It reports whether the outbox is closed.
func (s *session) flush(writer bool) (closed bool) {
	o := s.out
	o.mu.Lock()
	if o.flushing || writer && o.heldLocked() {
		closed = o.closed
		o.mu.Unlock()
		return closed
	}
	o.flushing = true
	for len(o.buf) > 0 {
		batch, vals := o.swapLocked()
		o.mu.Unlock()
		for i := range batch {
			if s.broken {
				break // peer gone: swallow the swap
			}
			m := &batch[i]
			// The cumulative dropped count is stamped at encode time, once
			// per frame, not at enqueue time: a drop is counted under the
			// mailbox lock while a CHANGE_NOTIFY frame is pending, and that
			// frame reaches this line strictly after the swap that followed
			// the drop, so the stamp that announces a gap always trails it
			// onto the wire. Stamping at enqueue would race the drop and
			// could leave every in-flight notify carrying the pre-drop
			// count.
			s.scratch = appendMsg(s.scratch[:0], m, vals, uint32(o.dropped.Load()))
			n, err := s.bw.Write(s.scratch)
			if err != nil {
				s.broken = true
				break
			}
			s.framesOut.Add(1)
			s.bytesOut.Add(int64(n))
			if m.op == OpChangeNotify {
				s.srv.notifyLat.Observe(telemetry.Now() - m.t0)
			}
		}
		if !s.broken && s.bw.Flush() != nil {
			s.broken = true
		}
		o.mu.Lock()
	}
	o.flushing = false
	closed = o.closed
	o.mu.Unlock()
	return closed
}

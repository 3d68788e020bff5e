package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// expectGoroutines is the repo's leak gate, extended to the serving
// plane: polls until the goroutine count returns to base or dumps all
// stacks.
func expectGoroutines(t *testing.T, base int, phase string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines alive, test started with %d:\n%s",
				phase, runtime.NumGoroutine(), base, buf[:m])
		}
		time.Sleep(time.Millisecond)
	}
}

// closeDeadline bounds a test's closing of its server and runtime.
const closeDeadline = 10 * time.Second

// newServer builds a runtime from cfg and a server over it. The test's
// cleanup closes both under closeDeadline; past it, it reports every
// goroutine's stack and returns, so a wedged Close fails in seconds and a
// panic that wedged it still surfaces.
func newServer(t testing.TB, cfg core.Config) (*core.Runtime, *Server) {
	t.Helper()
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	srv := NewServer(rt, Options{})
	t.Cleanup(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Close()
			rt.Close()
		}()
		select {
		case <-done:
		case <-time.After(closeDeadline):
			buf := make([]byte, 1<<20)
			t.Errorf("server and runtime Close not done after %v:\n%s", closeDeadline, buf[:runtime.Stack(buf, true)])
		}
	})
	return rt, srv
}

// newServerPair is newServer serving on a loopback port: it returns the
// runtime, the server and its address.
func newServerPair(t *testing.T, cfg core.Config) (*core.Runtime, *Server, string) {
	t.Helper()
	rt, srv := newServer(t, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return rt, srv, addr
}

// TestServeSessionsEndToEnd is the acceptance-criteria test: many
// concurrent loopback sessions drive connect → ATTACH → TSTORE_BATCH →
// WAIT → CHANGE_NOTIFY → disconnect churn while a sampler asserts the
// Stats counter identity on every concurrent snapshot, and the whole
// plane tears down with zero leaked goroutines.
func TestServeSessionsEndToEnd(t *testing.T) {
	const (
		sessions = 10
		threads  = 3
		rounds   = 3
		batches  = 4
		words    = 16
	)
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 4})

	// Concurrent snapshot sampler: the identity must hold on every read,
	// not just at quiescence.
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	var snapshots atomic.Int64
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := rt.Stats()
			snapshots.Add(1)
			if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
				t.Errorf("concurrent snapshot broke identity: Fired %d != Enqueued %d + Squashed %d + Overflowed %d",
					s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var clientNotifies atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				cs, err := Dial(addr)
				if err != nil {
					t.Errorf("session %d round %d: Dial: %v", i, round, err)
					return
				}
				handles := make([]uint32, threads)
				for k := range handles {
					h, err := cs.Attach(fmt.Sprintf("r%d", k), words, 0, words)
					if err != nil {
						t.Errorf("session %d: Attach: %v", i, err)
						cs.Close()
						return
					}
					if err := cs.Subscribe(h); err != nil {
						t.Errorf("session %d: Subscribe: %v", i, err)
						cs.Close()
						return
					}
					handles[k] = h
				}
				vs := make([]mem.Word, words)
				for b := 0; b < batches; b++ {
					for k, h := range handles {
						// Strictly increasing values: every word changes.
						for w := range vs {
							vs[w] = uint64(round*1000000 + b*1000 + k*50 + w + 1)
						}
						changed, err := cs.Batch(h, 0, vs)
						if err != nil {
							t.Errorf("session %d: Batch: %v", i, err)
							cs.Close()
							return
						}
						if changed != words {
							t.Errorf("session %d: Batch changed %d of %d distinct new words", i, changed, words)
						}
						if err := cs.Wait(h); err != nil {
							t.Errorf("session %d: Wait: %v", i, err)
							cs.Close()
							return
						}
						got := cs.Notifies()
						if len(got) < 1 || len(got) > changed {
							t.Errorf("session %d: %d notifies after a batch changing %d words, want [1, %d]",
								i, len(got), changed, changed)
						}
						for _, n := range got {
							if n.Handle != h {
								t.Errorf("session %d: notify for handle %d while driving handle %d", i, n.Handle, h)
							}
						}
						clientNotifies.Add(int64(len(got)))
					}
				}
				if err := cs.Barrier(); err != nil {
					t.Errorf("session %d: Barrier: %v", i, err)
				}
				clientNotifies.Add(int64(len(cs.Notifies())))
				if err := cs.Close(); err != nil {
					t.Errorf("session %d: Close: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()
	if snapshots.Load() == 0 {
		t.Fatal("sampler took no snapshots")
	}

	// All sessions retired: the serving counters must balance the
	// client's view exactly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live after all clients closed", srv.Counters().Sessions)
		}
		time.Sleep(time.Millisecond)
	}
	c := srv.Counters()
	if want := int64(sessions * rounds); c.SessionsTotal != want {
		t.Errorf("SessionsTotal = %d, want %d", c.SessionsTotal, want)
	}
	if want := int64(sessions * rounds * threads * batches); c.Batches != want {
		t.Errorf("Batches = %d, want %d", c.Batches, want)
	}
	if want := int64(sessions * rounds * threads * batches * words); c.Stores != want || c.Changed != want {
		t.Errorf("Stores/Changed = %d/%d, want %d", c.Stores, c.Changed, want)
	}
	if c.NotifyDropped != 0 {
		t.Errorf("NotifyDropped = %d, want 0", c.NotifyDropped)
	}
	if got := clientNotifies.Load(); got != c.Notifies {
		t.Errorf("clients received %d notifies, server queued %d", got, c.Notifies)
	}
	if c.Errors != 0 {
		t.Errorf("Errors = %d, want 0", c.Errors)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("final identity: %+v", s)
	}
	rt.Close()
	expectGoroutines(t, base, "after server and runtime Close")
}

// TestServeCrossTenantIsolation proves session A's triggering stores can
// never fire session B's threads, even with identical region names and
// indices.
func TestServeCrossTenantIsolation(t *testing.T) {
	_, _, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

	a, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer b.Close()

	ha, err := a.Attach("shared", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := a.Subscribe(ha); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	hb, err := b.Attach("shared", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := b.Subscribe(hb); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	vs := []mem.Word{11, 22, 33, 44}
	changed, err := b.Batch(hb, 0, vs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if changed != len(vs) {
		t.Fatalf("Batch changed %d, want %d", changed, len(vs))
	}
	if err := b.Wait(hb); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := b.Notifies(); len(got) == 0 {
		t.Fatal("tenant B received no notifies for its own batch")
	}
	// A's view: barrier its own threads, then check nothing arrived.
	if err := a.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if got := a.Notifies(); len(got) != 0 {
		t.Fatalf("tenant A received %d notifies from tenant B's stores: %v", len(got), got)
	}
}

// TestServeSessionIDsNeverReused: the id HELLO carries names one session for
// the server's lifetime. A closed session's id is not handed to a later one,
// whether or not another session stays open meanwhile.
func TestServeSessionIDsNeverReused(t *testing.T) {
	_, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 1})
	seen := make(map[uint32]bool)
	var first *Session
	for i := 0; i < 4; i++ {
		cs, err := Dial(addr)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		if seen[cs.ID()] {
			t.Fatalf("session %d was given id %d, which an earlier session had", i, cs.ID())
		}
		seen[cs.ID()] = true
		if first == nil {
			first = cs // stays open throughout
			continue
		}
		cs.Close()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Counters().Sessions != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("session %d still live 5 s after its client closed", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first.Close()
}

// rawDial opens a connection and completes the handshake by hand, for
// tests that need to send malformed or partial frames.
func rawDial(t *testing.T, addr string) (net.Conn, *frameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	hello := make([]byte, 0, 16)
	hello, start := appendFrameHeader(hello, OpHello)
	hello = appendU32(hello, Magic)
	hello = appendU16(hello, Version)
	patchFrameLength(hello, start)
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("write HELLO: %v", err)
	}
	fr := newFrameReader(conn)
	op, _, err := fr.ReadFrame()
	if err != nil || op != OpHello {
		t.Fatalf("HELLO reply: op %d, err %v", op, err)
	}
	return conn, fr
}

// TestServeMidBatchDisconnect cuts a connection in the middle of a
// TSTORE_BATCH payload and checks the session retires cleanly with the
// runtime's counters still balanced.
func TestServeMidBatchDisconnect(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

	conn, fr := rawDial(t, addr)
	attach := make([]byte, 0, 32)
	attach, start := appendFrameHeader(attach, OpAttach)
	attach = appendU32(attach, 8) // words
	attach = appendU32(attach, 0) // lo
	attach = appendU32(attach, 8) // hi
	attach = appendU16(attach, 1)
	attach = append(attach, 'r')
	patchFrameLength(attach, start)
	if _, err := conn.Write(attach); err != nil {
		t.Fatalf("write ATTACH: %v", err)
	}
	if op, _, err := fr.ReadFrame(); err != nil || op != OpAttach {
		t.Fatalf("ATTACH reply: op %d, err %v", op, err)
	}

	// Header claims 100 words; deliver 5 and vanish.
	partial := make([]byte, 0, 64)
	partial, start = appendFrameHeader(partial, OpTStoreBatch)
	partial = appendU32(partial, 0)   // handle
	partial = appendU32(partial, 0)   // lo
	partial = appendU32(partial, 100) // n
	for i := 0; i < 5; i++ {
		partial = appendU64(partial, uint64(i+1))
	}
	binary.BigEndian.PutUint32(partial[start:], uint32(1+12+100*8))
	if _, err := conn.Write(partial); err != nil {
		t.Fatalf("write partial batch: %v", err)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not retire after mid-batch disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	c := srv.Counters()
	if c.Batches != 0 {
		t.Errorf("truncated batch counted: Batches = %d, want 0", c.Batches)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("identity after mid-batch disconnect: %+v", s)
	}

	// A second casualty: disconnect mid-frame-header.
	conn2, _ := rawDial(t, addr)
	if _, err := conn2.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatalf("write header fragment: %v", err)
	}
	conn2.Close()
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not retire after mid-header disconnect")
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rt.Close()
	expectGoroutines(t, base, "after disconnect churn")
}

// TestServeErrorRepliesKeepSessionAlive drives the semantic-failure
// paths: each earns an ERROR frame and the session keeps working.
func TestServeErrorRepliesKeepSessionAlive(t *testing.T) {
	_, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()

	if _, err := cs.Attach("r", 8, 0, 16); err == nil {
		t.Error("Attach beyond the region did not error")
	}
	if _, err := cs.Batch(99, 0, []mem.Word{1}); err == nil {
		t.Error("Batch with unknown handle did not error")
	}
	if err := cs.Wait(99); err == nil {
		t.Error("Wait with unknown handle did not error")
	}
	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil {
		t.Fatalf("valid Attach after errors: %v", err)
	}
	if _, err := cs.Batch(h, 4, []mem.Word{1, 2, 3, 4, 5}); err == nil {
		t.Error("Batch spanning past the region end did not error")
	}
	if _, err := cs.Attach("r", 16, 0, 8); err == nil {
		t.Error("size-mismatched re-Attach of region did not error")
	}
	changed, err := cs.Batch(h, 0, []mem.Word{1, 2, 3})
	if err != nil || changed != 3 {
		t.Fatalf("valid Batch after errors: changed %d, err %v", changed, err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("valid Wait after errors: %v", err)
	}
	if got, want := srv.Counters().Errors, int64(5); got != want {
		t.Errorf("Errors = %d, want %d", got, want)
	}
}

// TestServeRejectedAttachRegistersNothing: an ATTACH whose range the region
// rejects must not leave a registered thread behind. A peer looping bad
// ranges used to grow the namespace's thread list and the runtime's thread
// table (copied on every Register) until its session ended. An ATTACH of
// 2^32-1 words is refused before anything is allocated: the server used to
// make the 32 GiB region, a fatal out-of-memory for every session.
func TestServeRejectedAttachRegistersNothing(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()

	const rejected = 65
	for i := 0; i < rejected-1; i++ {
		bad := [][2]int{{0, 16}, {4, 4}, {6, 2}, {8, 9}}[i%4]
		if _, err := cs.Attach("r", 8, bad[0], bad[1]); err == nil {
			t.Fatalf("Attach [%d, %d) of an 8-word region did not error", bad[0], bad[1])
		}
	}
	if _, err := cs.Attach("huge", 1<<32-1, 0, 1); err == nil {
		t.Fatal("Attach of a 2^32-1-word region did not error")
	}
	// ThreadName falls back to "thread-<id>" beyond the thread table, so this
	// reads the table's length: nothing was ever registered.
	if name := rt.ThreadName(0); name != "thread-0" {
		t.Fatalf("%d rejected ATTACHes left thread 0 registered as %q", rejected, name)
	}
	srv.mu.Lock()
	for _, sess := range srv.sessions {
		if n := sess.ns.Threads(); n != 0 {
			t.Errorf("%d rejected ATTACHes left the session's namespace owning %d threads", rejected, n)
		}
	}
	srv.mu.Unlock()

	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil || h != 0 {
		t.Fatalf("first accepted Attach: handle %d, err %v, want handle 0", h, err)
	}
	if name := rt.ThreadName(1); name != "thread-1" {
		t.Fatalf("the accepted ATTACH registered more than one thread: thread 1 is %q", name)
	}
	if got := srv.Counters().Errors; got != rejected {
		t.Errorf("Errors = %d, want %d", got, rejected)
	}
}

// TestServeHandshakeViolations: anything but a well-formed HELLO as the
// first frame closes the connection without a session reply.
func TestServeHandshakeViolations(t *testing.T) {
	_, _, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 1})

	send := func(frame []byte) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, _, err = newFrameReader(conn).ReadFrame()
		return err
	}

	badMagic := make([]byte, 0, 16)
	badMagic, start := appendFrameHeader(badMagic, OpHello)
	badMagic = appendU32(badMagic, 0x12345678)
	badMagic = appendU16(badMagic, Version)
	patchFrameLength(badMagic, start)
	if err := send(badMagic); err == nil {
		t.Error("bad magic still got a reply")
	}

	badVersion := make([]byte, 0, 16)
	badVersion, start = appendFrameHeader(badVersion, OpHello)
	badVersion = appendU32(badVersion, Magic)
	badVersion = appendU16(badVersion, Version+7)
	patchFrameLength(badVersion, start)
	if err := send(badVersion); err == nil {
		t.Error("bad version still got a reply")
	}

	// Older protocol versions are refused here rather than fed frames they
	// would misparse: version 2's CHANGE_NOTIFY has another shape, and
	// version 3 would read a quiet-stamped TSTORE_BATCH reply as a changed
	// count past 2^31.
	for _, v := range []uint16{2, 3} {
		oldHello := make([]byte, 0, 16)
		oldHello, start = appendFrameHeader(oldHello, OpHello)
		oldHello = appendU32(oldHello, Magic)
		oldHello = appendU16(oldHello, v)
		patchFrameLength(oldHello, start)
		if err := send(oldHello); err == nil {
			t.Errorf("version-%d HELLO still got a reply", v)
		}
	}

	notHello := make([]byte, 0, 16)
	notHello, start = appendFrameHeader(notHello, OpBarrier)
	patchFrameLength(notHello, start)
	if err := send(notHello); err == nil {
		t.Error("BARRIER before HELLO still got a reply")
	}
}

// TestServeSubscribeGating: without SUBSCRIBE no notifications flow;
// after it they do.
func TestServeSubscribeGating(t *testing.T) {
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
	if _, err := cs.Batch(h, 0, []mem.Word{1, 2, 3, 4}); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := cs.Notifies(); len(got) != 0 {
		t.Fatalf("%d notifies before SUBSCRIBE", len(got))
	}
	if err := cs.Subscribe(h); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := cs.Batch(h, 0, []mem.Word{5, 6, 7, 8}); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := cs.Notifies(); len(got) == 0 {
		t.Fatal("no notifies after SUBSCRIBE")
	}
}

// TestServeCloseRacesInFlightBatches: Close severing sessions mid-batch
// leaves no goroutines behind and the runtime balanced — the serving
// plane's version of the Close-races-producers gate.
func TestServeCloseRacesInFlightBatches(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 4})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := Dial(addr)
			if err != nil {
				return // server may already be closing
			}
			defer cs.Close()
			h, err := cs.Attach("r", 8, 0, 8)
			if err != nil {
				return
			}
			if err := cs.Subscribe(h); err != nil {
				return
			}
			vs := make([]mem.Word, 8)
			for b := 1; ; b++ {
				for w := range vs {
					vs[w] = uint64(b*100 + w)
				}
				if _, err := cs.Batch(h, 0, vs); err != nil {
					return // severed by Close: expected
				}
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the batch storm develop
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if err := srv.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("identity after Close race: %+v", s)
	}
	rt.Close()
	expectGoroutines(t, base, "after Close racing batches")
}

// TestServeCloseWithSessionInWait: Server.Close with a session blocked in
// WAIT on a thread triggered just before the close. A runtime-level thread
// holds the only worker, so the session's triggered entries stay queued and
// its WAIT cannot finish: the batch changes more words than the backlog a
// joiner runs itself (core.WaitHelpMax, one claim). Close severs the
// connection at once, so the client sees it end while the server-side Wait
// is still blocked, and Close returns once the entries run, which the test
// allows by releasing the worker. Every step has a 2 s watchdog.
func TestServeCloseWithSessionInWait(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer func() { // a failed step must not leave the worker held
		unblock()
		srv.Close()
		rt.Close()
	}()
	gate := rt.NewRegion("gate", 1)
	gid := rt.Register("gate", func(core.Trigger) {
		close(entered)
		<-release
	})
	if err := rt.Attach(gid, gate, 0, 1); err != nil {
		t.Fatal(err)
	}
	gate.TStore(0, 1)
	within := func(what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: still blocked after 2 s:\n%s", what, buf[:runtime.Stack(buf, true)])
		}
	}
	within("gate body start", entered)

	cs, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	const words = 32
	h, err := cs.Attach("r", words, 0, words)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]mem.Word, words)
	for i := range vs {
		vs[i] = mem.Word(i + 1)
	}
	if changed, err := cs.Batch(h, 0, vs); err != nil || changed != words {
		t.Fatalf("Batch changed %d of %d words, err %v", changed, words, err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cs.Wait(h) }()
	for deadline := time.Now().Add(2 * time.Second); rt.Stats().Waits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the session never entered WAIT")
		}
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("WAIT answered while its thread could not run")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the client did not see its connection end within 2 s of Close")
	}
	unblock()
	within("Server.Close", closed)

	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("identity after Close: %+v", s)
	}
	rt.Close()
	expectGoroutines(t, base, "after Close with a session in WAIT")
}

// TestServeSanitizerClean runs a full session against a CheckStrict
// runtime: the serving plane must be protocol-clean under the sanitizer.
func TestServeSanitizerClean(t *testing.T) {
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2, Checker: core.CheckStrict})

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	h, err := cs.Attach("r", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := cs.Subscribe(h); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := cs.Batch(h, 0, []mem.Word{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := cs.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if err := cs.Close(); err != nil {
		t.Fatalf("client Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not retire")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.CheckErr(); err != nil {
		t.Fatalf("sanitizer violations from the serving plane: %v", err)
	}
}

// wireConn is a connection whose writes land in a buffer, so the outbox
// tests run the real flush without a peer.
type wireConn struct {
	net.Conn
	w *bytes.Buffer
}

func (c wireConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// testSession is a session over o whose flushes write into wire.
func testSession(o *outbox, wire *bytes.Buffer) *session {
	return &session{srv: NewServer(nil, Options{}), out: o, conn: wireConn{w: wire}}
}

// testHandle is a subscribed handle id over words [0, words).
func testHandle(id, words uint32) *attachHandle {
	return &attachHandle{id: id, hi: words, slots: make([]uint32, words)}
}

// readStream decodes every frame in wire into the client's per-word view:
// one Notify per CHANGE_NOTIFY word, and replyMark for each reply. A READ
// reply also lands its words in cache, as a subscriber re-reading would.
func readStream(t *testing.T, wire *bytes.Buffer, cache map[int]mem.Word) []Notify {
	t.Helper()
	var got []Notify
	fr := newFrameReader(wire)
	for {
		op, payload, err := fr.ReadFrame()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if op != OpChangeNotify {
			got = append(got, replyMark)
			if op == OpRead {
				c := cursor{b: payload}
				for i, n := 0, int(c.u32()); i < n; i++ {
					cache[i] = c.u64()
				}
			}
			continue
		}
		k := len(got)
		if got, _, err = appendNotifies(got, payload); err != nil {
			t.Fatal(err)
		}
		for _, n := range got[k:] {
			cache[n.Index] = n.Value
		}
	}
}

// TestOutboxOverwritesPendingWords pins the thread queue's rule at the
// unit level: a word pushed twice before a swap goes out once, with its
// latest value, and the list never holds more entries than attached words
// per reply segment. Only a closed outbox refuses a word.
func TestOutboxOverwritesPendingWords(t *testing.T) {
	const words = 8
	o := newOutbox()
	var wire bytes.Buffer
	s := testSession(o, &wire)
	h := testHandle(0, words)
	for round := 0; round < 3; round++ {
		for v := mem.Word(1); v <= 5; v++ {
			for i := uint32(0); i < words; i++ {
				if queued := o.pushNotify(h, i, v*100+mem.Word(i), int64(v)); queued != (v == 1) {
					t.Fatalf("round %d: push %d of word %d queued %v, want %v", round, v, i, queued, v == 1)
				}
			}
		}
		o.mu.Lock()
		pending := len(o.notes)
		o.mu.Unlock()
		if pending != words {
			t.Fatalf("round %d: %d entries for %d words pushed five times", round, pending, words)
		}
		s.flush(false)
		cache := map[int]mem.Word{}
		got := readStream(t, &wire, cache)
		if len(got) != words || s.framesOut.Load() != int64(round+1) {
			t.Fatalf("round %d: %d words in %d frames, want %d in one", round, len(got), s.framesOut.Load(), words)
		}
		for i := 0; i < words; i++ {
			if cache[i] != 500+mem.Word(i) {
				t.Fatalf("round %d: word %d went out as %d, want its latest value %d", round, i, cache[i], 500+i)
			}
		}
		// The swap cleaned every slot: the next round queues afresh.
		for i, sl := range h.slots {
			if sl != 0 {
				t.Fatalf("round %d: slot %d = %d after the swap", round, i, sl)
			}
		}
	}
	// A reply splits the segments: a word pending before it gets a second
	// entry after it, and each segment holds at most one entry per word.
	for seg := 0; seg < 4; seg++ {
		for v := mem.Word(0); v < 3; v++ {
			for i := uint32(0); i < words; i++ {
				o.pushNotify(h, i, v, 0)
			}
		}
		o.push(msg{op: OpWait})
	}
	o.mu.Lock()
	pending := len(o.notes)
	o.mu.Unlock()
	if pending != 4*words {
		t.Fatalf("%d entries over 4 reply segments of %d words", pending, words)
	}
	s.flush(false)
	wire.Reset()
	o.close()
	if o.push(msg{op: OpWait}) || o.pushNotify(h, 0, 1, 0) {
		t.Fatal("push after close succeeded")
	}
	if got := o.dropped.Load(); got != 1 {
		t.Fatalf("dropped = %d, want 1: only the word refused by close", got)
	}
}

// TestOutboxCoalescesOnlyAdjacentRuns pins where the flush cuts
// CHANGE_NOTIFY runs: consecutive entries of one handle whose indices
// ascend by one, with no reply between them, under the frame cap. A
// repeated index is an overwrite, not an entry; everything else starts a
// new frame, so expanding the frames in order reproduces the entries.
func TestOutboxCoalescesOnlyAdjacentRuns(t *testing.T) {
	o := newOutbox()
	var wire bytes.Buffer
	s := testSession(o, &wire)
	hs := []*attachHandle{testHandle(0, maxNotifyRun+64), testHandle(1, 64)}
	type run struct{ handle, lo, n uint32 }
	push := func(handle, index uint32) {
		t.Helper()
		o.pushNotify(hs[handle], index, mem.Word(index), 0)
	}
	runs := func() (got []run) {
		t.Helper()
		fr := newFrameReader(&wire)
		for {
			op, payload, err := fr.ReadFrame()
			if err == io.EOF {
				return got
			}
			if err != nil {
				t.Fatal(err)
			}
			if op != OpChangeNotify {
				continue
			}
			ns, _, err := appendNotifies(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range ns {
				if n.Value != mem.Word(n.Index) {
					t.Errorf("run at %d word %d carries %d", ns[0].Index, i, n.Value)
				}
			}
			got = append(got, run{ns[0].Handle, uint32(ns[0].Index), uint32(len(ns))})
		}
	}
	push(0, 10)
	push(0, 11) // adjacent: joins
	push(0, 13) // gap
	push(0, 12) // descending
	push(0, 12) // repeated: overwrites, no entry
	push(0, 13) // pending: overwrites
	push(1, 14) // other handle
	push(1, 15)
	o.push(msg{op: OpTStoreBatch}) // a reply in between
	push(1, 16)
	s.flush(false)
	want := []run{{0, 10, 2}, {0, 13, 1}, {0, 12, 1}, {1, 14, 2}, {1, 16, 1}}
	if got := runs(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	// A run is cut where its frame would outgrow MaxFrame.
	for i := uint32(0); i <= maxNotifyRun; i++ {
		push(0, i)
	}
	s.flush(false)
	if got, want := runs(), []run{{0, 0, maxNotifyRun}, {0, maxNotifyRun, 1}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("over-long run split into %v, want %v", got, want)
	}
	if n := notifyFixed + 8*maxNotifyRun + 1; n > MaxFrame || n <= MaxFrame-8 {
		t.Fatalf("the longest run's frame length %d is not the most that fits MaxFrame %d", n, MaxFrame)
	}
}

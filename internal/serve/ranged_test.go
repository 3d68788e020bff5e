package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// replyMark stands for a reply frame in a decoded stream, so a test can
// check where replies fall between notifications.
var replyMark = Notify{Handle: ^uint32(0)}

// TestRangedNotifyMatchesPerWordModel drives the mailbox with seeded
// random bursts over two handles — adjacent runs, gaps, descending and
// repeated indices, replies in between, drains at random points — beside a
// reference mailbox that keeps one slot per word (wire v2's shape). Each
// drain is encoded, read back through a frameReader and expanded by the
// client decoder; the expanded stream must equal the reference's word for
// word, shed words and dropped stamps included.
func TestRangedNotifyMatchesPerWordModel(t *testing.T) {
	for _, capacity := range []int{4, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		o := newOutbox(capacity)
		var (
			model        []Notify // the reference mailbox: pending words and reply marks
			modelNotes   int
			modelDropped uint32
			want, got    []Notify
			frames       int
			wire         bytes.Buffer
			scratch      []byte
			next         mem.Word
		)
		fr := newFrameReader(&wire)
		word := func(handle uint32, index int) {
			next++
			ok := o.pushNotify(handle, uint32(index), next, 0)
			if shed := modelNotes >= capacity; shed == ok {
				t.Fatalf("cap %d: pushNotify = %v with %d words pending", capacity, ok, modelNotes)
			} else if shed {
				modelDropped++
				return
			}
			modelNotes++
			model = append(model, Notify{Handle: handle, Index: index, Value: next})
		}
		drain := func() {
			batch, vals, _ := o.swap()
			for i := range batch {
				scratch = appendMsg(scratch[:0], &batch[i], vals, uint32(o.dropped.Load()))
				wire.Write(scratch)
			}
			frames += len(batch)
			for _, n := range model {
				if n != replyMark {
					n.Dropped = modelDropped
				}
				want = append(want, n)
			}
			model, modelNotes = model[:0], 0
			for range batch {
				op, payload, err := fr.ReadFrame()
				if err != nil {
					t.Fatalf("cap %d: ReadFrame: %v", capacity, err)
				}
				if op != OpChangeNotify {
					got = append(got, replyMark)
					continue
				}
				if got, _, err = appendNotifies(got, payload); err != nil {
					t.Fatalf("cap %d: %v", capacity, err)
				}
			}
		}
		for step := 0; step < 4000; step++ {
			handle, lo, k := uint32(rng.Intn(2)), rng.Intn(200), 1+rng.Intn(32)
			switch rng.Intn(7) {
			case 0: // adjacent run
				for i := 0; i < k; i++ {
					word(handle, lo+i)
				}
			case 1: // gaps
				for i := 0; i < k; i++ {
					word(handle, lo+2*i)
				}
			case 2: // descending
				for i := k; i > 0; i-- {
					word(handle, lo+i)
				}
			case 3: // repeated
				for i := 0; i < k; i++ {
					word(handle, lo+i/2)
				}
			case 4: // two handles alternating over the same indices
				for i := 0; i < k; i++ {
					word(uint32(i%2), lo+i/2)
				}
			case 5:
				o.push(msg{op: OpWait})
				model = append(model, replyMark)
			case 6:
				drain()
			}
		}
		drain()
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("cap %d: expanded stream (%d entries) and per-word model (%d) diverge at %d:\ngot  %+v\nwant %+v",
				capacity, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
		if o.dropped.Load() != int64(modelDropped) {
			t.Errorf("cap %d: dropped = %d, per-word model shed %d", capacity, o.dropped.Load(), modelDropped)
		}
		if capacity == 4 && modelDropped == 0 {
			t.Errorf("cap %d: the bursts never shed a word; the test lost its shedding half", capacity)
		}
		if frames >= len(want) {
			t.Errorf("cap %d: %d frames for %d words and replies: nothing coalesced", capacity, frames, len(want))
		}
		t.Logf("cap %d: %d words and replies in %d frames, %d shed", capacity, len(want), frames, modelDropped)
	}
}

// TestRangedNotifyEndToEnd is the same equivalence over a real session:
// seeded random requests of several batches over two handles — runs that
// continue, skip, step back over or repeat the previous batch's span,
// each batch's reply landing among the notifications — at three mailbox
// caps. Per handle the client's expanded stream must be, in order and
// value, the words the batches changed minus what the mailbox shed, the
// shed must be announced exactly (len(notifies) + gap == changed on every
// request), and the client's final dropped count must equal the server's.
func TestRangedNotifyEndToEnd(t *testing.T) {
	const (
		words    = 96
		requests = 300
	)
	for _, capacity := range []int{4, 64, 1024} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rt, srv, addr := newServerPair(t,
				core.Config{Backend: core.BackendImmediate, Workers: 2}, Options{MailboxCap: capacity})
			defer rt.Close()
			defer srv.Close()
			cs, err := Dial(addr)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer cs.Close()
			var handles [2]uint32
			for i := range handles {
				if handles[i], err = cs.Attach(fmt.Sprintf("r%d", i), words, 0, words); err == nil {
					err = cs.Subscribe(handles[i])
				}
				if err != nil {
					t.Fatalf("Attach/Subscribe %d: %v", i, err)
				}
			}

			rng := rand.New(rand.NewSource(int64(capacity)))
			var (
				next     mem.Word
				received int64
				lastDrop uint32
				prev     [2]struct{ lo, hi int } // the previous batch's span, per handle
			)
			for req := 0; req < requests; req++ {
				var want [2][]Notify
				var dirty [2][words]bool
				changed := 0
				for sub, subs := 0, 1+rng.Intn(4); sub < subs; sub++ {
					i := rng.Intn(2)
					k := 1 + rng.Intn(16)
					var lo int
					switch rng.Intn(4) {
					case 0: // continues the previous run
						lo = prev[i].hi
					case 1: // leaves a gap
						lo = prev[i].hi + 1 + rng.Intn(3)
					case 2: // steps back below it
						lo = prev[i].lo - k
					case 3: // repeats it
						lo = prev[i].lo
					}
					if lo < 0 || lo+k > words {
						lo = rng.Intn(words - k + 1)
					}
					prev[i].lo, prev[i].hi = lo, lo+k
					// A word stored twice before its thread ran is squashed
					// into one notification; quiesce the handle first so the
					// expected stream stays exact.
					if slices.Contains(dirty[i][lo:lo+k], true) {
						if err := cs.Wait(handles[i]); err != nil {
							t.Fatalf("request %d: Wait: %v", req, err)
						}
						dirty[i] = [words]bool{}
					}
					vs := make([]mem.Word, k)
					for j := range vs {
						next++
						vs[j] = next
						dirty[i][lo+j] = true
						want[i] = append(want[i], Notify{Handle: handles[i], Index: lo + j, Value: next})
					}
					c, err := cs.Batch(handles[i], lo, vs)
					if err != nil || c != k {
						t.Fatalf("request %d: Batch changed %d of %d, err %v", req, c, k, err)
					}
					changed += c
				}
				if err := cs.Barrier(); err != nil {
					t.Fatalf("request %d: Barrier: %v", req, err)
				}
				got := cs.Notifies()
				gap := int(cs.TakeGap())
				if len(got)+gap != changed {
					t.Fatalf("request %d: %d notifies + gap %d != %d changed words", req, len(got), gap, changed)
				}
				received += int64(len(got))
				// Per handle, what arrived is an in-order subsequence of what
				// changed; with no gap it is all of it.
				var at [2]int
				for _, n := range got {
					if n.Dropped < lastDrop {
						t.Fatalf("request %d: dropped stamp went backwards: %d after %d", req, n.Dropped, lastDrop)
					}
					lastDrop = n.Dropped
					i := slices.Index(handles[:], n.Handle)
					if i < 0 {
						t.Fatalf("request %d: notify for unknown handle %d", req, n.Handle)
					}
					n.Dropped = 0
					j := slices.Index(want[i][at[i]:], n)
					if j < 0 {
						t.Fatalf("request %d: handle %d: %+v is not among the changed words left after position %d of %v",
							req, i, n, at[i], want[i])
					}
					at[i] += j + 1
				}
			}
			c := srv.Counters()
			if int64(cs.Dropped()) != c.NotifyDropped {
				t.Errorf("client Dropped() %d != server NotifyDropped %d", cs.Dropped(), c.NotifyDropped)
			}
			if received != c.Notifies {
				t.Errorf("client received %d notifies, server queued %d", received, c.Notifies)
			}
			if c.Notifies+c.NotifyDropped != c.Changed {
				t.Errorf("Notifies %d + NotifyDropped %d != Changed %d", c.Notifies, c.NotifyDropped, c.Changed)
			}
			t.Logf("cap %d: %d words changed, %d shed, %d frames out", capacity, c.Changed, c.NotifyDropped, c.FramesOut)
		})
	}
}

// countingConn counts the Read and Write calls a session makes on its
// connection: on a TCP socket each is one syscall.
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands the server counted connections.
type countingListener struct {
	net.Listener
	reads, writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.reads, l.writes}, nil
}

// TestServeSyscallsPerRequest is the cost model's regression test: a Batch +
// Wait of at most one claim's changed words costs one client write, one
// client read and one server write, whether subscribed (16 adjacent words,
// serve_notify's shape) or not (one word, serve_rr's). The server joins the
// thread before it replies, running the bodies on its reader without waking
// the worker, so the BATCH reply goes out behind the batch's one ranged
// CHANGE_NOTIFY, stamped quiet, and the client answers the WAIT from that
// stamp: one frame in, at most two out, no worker wake. Wire v2 over
// unbuffered frame reads paid 36 client reads (two per frame, 18 frames), 4
// server reads and 18 frames out; wire v3 paid two of everything, a WAIT
// round trip and a worker wake for bodies the reader then ran itself.
func TestServeSyscallsPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name       string
		words      int
		subscribed bool
	}{
		{"subscribed_16", 16, true},
		{"unsubscribed_1", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) { syscallsPerRequest(t, tc.words, tc.subscribed) })
	}
}

func syscallsPerRequest(t *testing.T, words int, subscribed bool) {
	const (
		warm     = 50
		requests = 200
	)
	rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 1})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var srvReads, srvWrites, cliReads, cliWrites atomic.Int64
	srv := NewServer(rt, Options{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(countingListener{ln, &srvReads, &srvWrites}) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cs, err := newSession(countingConn{conn, &cliReads, &cliWrites})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cs.Close()
	h, err := cs.Attach("r", 256, 0, 256)
	if err == nil && subscribed {
		err = cs.Subscribe(h)
	}
	if err != nil {
		t.Fatalf("Attach/Subscribe: %v", err)
	}

	vs := make([]mem.Word, words)
	var next mem.Word
	var before Counters
	var wakes0 int64
	for req := -warm; req < requests; req++ {
		if req == 0 {
			before, wakes0 = srv.Counters(), rt.Stats().WorkerWakes
			for _, c := range []*atomic.Int64{&srvReads, &srvWrites, &cliReads, &cliWrites} {
				c.Store(0)
			}
		}
		for i := range vs {
			next++
			vs[i] = next
		}
		lo := (req + warm) % (256 - words)
		if changed, err := cs.Batch(h, lo, vs); err != nil || changed != words {
			t.Fatalf("request %d: Batch changed %d, err %v", req, changed, err)
		}
		if err := cs.Wait(h); err != nil {
			t.Fatalf("request %d: Wait: %v", req, err)
		}
		got := cs.Notifies()
		if !subscribed {
			if len(got) != 0 {
				t.Fatalf("request %d: %d notifies on an unsubscribed handle", req, len(got))
			}
			continue
		}
		if len(got) != words || got[0].Index != lo || got[words-1] != (Notify{Handle: h, Index: lo + words - 1, Value: next}) {
			t.Fatalf("request %d: %d notifies, first %+v, last %+v", req, len(got), got[0], got[len(got)-1])
		}
	}
	after := srv.Counters()
	per := func(n int64) float64 { return float64(n) / requests }
	framesIn, framesOut := per(after.FramesIn-before.FramesIn), per(after.FramesOut-before.FramesOut)
	wakes := per(rt.Stats().WorkerWakes - wakes0)
	t.Logf("per request: client %.2f reads %.2f writes, server %.2f reads %.2f writes, %.2f frames in, %.2f frames and %.0f bytes out, %.2f worker wakes",
		per(cliReads.Load()), per(cliWrites.Load()), per(srvReads.Load()), per(srvWrites.Load()),
		framesIn, framesOut, per(after.BytesOut-before.BytesOut), wakes)
	// None of this depends on timing, so the bounds hold in every build,
	// -race and GOMAXPROCS=1 included.
	for _, c := range []struct {
		what  string
		got   float64
		bound float64
	}{
		{"client conn.Write calls", per(cliWrites.Load()), 1},
		{"client conn.Read calls", per(cliReads.Load()), 1},
		{"server conn.Write calls", per(srvWrites.Load()), 1},
		{"server conn.Read calls", per(srvReads.Load()), 2},
		{"frames in", framesIn, 1},
		{"frames out", framesOut, 2},
		{"worker wakes", wakes, 0},
	} {
		if c.got > c.bound {
			t.Errorf("%.2f %s per request, want <= %.0f", c.got, c.what, c.bound)
		}
	}
	want := 0
	if subscribed {
		want = words
	}
	if got := per(after.Notifies - before.Notifies); got != float64(want) {
		t.Errorf("Counters.Notifies grew by %.2f per request, want %d: it counts words, not frames", got, want)
	}
}

package serve

import (
	"bytes"
	"cmp"
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

// TestRangedNotifyMatchesPerWordModel drives the outbox with seeded
// random bursts over two handles — adjacent runs, gaps, descending and
// repeated indices, replies in between, flushes at random points — beside
// a reference mailbox that keeps one slot per word: a word pushed again
// takes the new value in its slot while no reply has been queued since,
// and gets a new slot after a reply. Each flush writes through the real
// encoder, read back through a frameReader and expanded by the client
// decoder; the expanded stream must equal the reference's word for word,
// with every dropped stamp 0.
func TestRangedNotifyMatchesPerWordModel(t *testing.T) {
	const words = 264
	for _, seed := range []int64{4, 64, 1024} {
		rng := rand.New(rand.NewSource(seed))
		o := newOutbox()
		var wire bytes.Buffer
		s := testSession(o, &wire)
		hs := []*attachHandle{testHandle(0, words), testHandle(1, words)}
		var (
			model     []Notify           // the reference mailbox: pending words and reply marks
			slot      = map[[2]int]int{} // (handle, index) -> its position in model
			mark      int                // len(model) at the last reply
			want, got []Notify
			next      mem.Word
		)
		word := func(handle uint32, index int) {
			next++
			queued := o.pushNotify(hs[handle], uint32(index), next, 0)
			if k, ok := slot[[2]int{int(handle), index}]; ok && k >= mark {
				if queued {
					t.Fatalf("seed %d: a word pending since the last reply was queued again", seed)
				}
				model[k].Value = next
				return
			}
			if !queued {
				t.Fatalf("seed %d: a word not pending since the last reply was not queued", seed)
			}
			slot[[2]int{int(handle), index}] = len(model)
			model = append(model, Notify{Handle: handle, Index: index, Value: next})
		}
		drain := func() {
			s.flush(false)
			want = append(want, model...)
			model, mark = model[:0], 0
			clear(slot)
			got = append(got, readStream(t, &wire, map[int]mem.Word{})...)
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
				mark = len(model)
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
			t.Fatalf("seed %d: expanded stream (%d entries) and per-word model (%d) diverge at %d:\ngot  %+v\nwant %+v",
				seed, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
		if o.dropped.Load() != 0 {
			t.Errorf("seed %d: dropped = %d on an open outbox", seed, o.dropped.Load())
		}
		frames := s.framesOut.Load()
		if frames >= int64(len(want)) {
			t.Errorf("seed %d: %d frames for %d words and replies: nothing coalesced", seed, frames, len(want))
		}
		t.Logf("seed %d: %d words and replies in %d frames, %d pushes", seed, len(want), frames, next)
	}
}

// TestRangedNotifyEndToEnd is the same equivalence over a real session:
// seeded random requests of several batches over two handles — runs that
// continue, skip, step back over or repeat the previous batch's span,
// each batch's reply landing among the notifications — at three run caps:
// a batch stores 1..cap words, over regions of max(96, cap) words, so
// the longest runs cover a whole region. Per handle the client's
// expanded stream must be exactly the words the batches changed, each
// with its value: nothing shed, nothing merged (a word is stored again
// only after a Wait on its handle), every stamp and gap 0. A request
// whose words fit the thread queue together gets them in store order;
// past that a batch overflows the queue, and the writer runs the
// overflowed rest inline ahead of the queued entries, so there only the
// words and values are compared.
func TestRangedNotifyEndToEnd(t *testing.T) {
	const (
		requests = 300
		queueCap = 64
	)
	for _, capacity := range []int{4, 64, 1024} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			words := max(96, capacity)
			_, srv, addr := newServerPair(t,
				core.Config{Backend: core.BackendImmediate, Workers: 2, QueueCapacity: queueCap})
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
				inOrder  int                     // requests whose streams were compared in order
				prev     [2]struct{ lo, hi int } // the previous batch's span, per handle
			)
			dirty := [2][]bool{make([]bool, words), make([]bool, words)}
			for req := 0; req < requests; req++ {
				var want, got [2][]Notify
				changed := 0
				for sub, subs := 0, 1+rng.Intn(4); sub < subs; sub++ {
					i := rng.Intn(2)
					k := 1 + rng.Intn(capacity)
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
						clear(dirty[i])
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
				ns := cs.Notifies()
				if gap := cs.TakeGap(); len(ns) != changed || gap != 0 {
					t.Fatalf("request %d: %d notifies and gap %d for %d changed words", req, len(ns), gap, changed)
				}
				received += int64(len(ns))
				if changed <= queueCap {
					inOrder++
				}
				for _, n := range ns {
					i := slices.Index(handles[:], n.Handle)
					if i < 0 || n.Dropped != 0 {
						t.Fatalf("request %d: notify %+v: unknown handle or a nonzero stamp", req, n)
					}
					got[i] = append(got[i], n)
				}
				for i := range got {
					if changed > queueCap {
						slices.SortFunc(got[i], func(a, b Notify) int { return cmp.Compare(a.Value, b.Value) })
					}
					if !slices.Equal(got[i], want[i]) {
						j := 0
						for j < len(got[i]) && j < len(want[i]) && got[i][j] == want[i][j] {
							j++
						}
						t.Fatalf("request %d: handle %d: %d notifies, %d changed words; they diverge at %d: got %v, want %v",
							req, i, len(got[i]), len(want[i]), j, got[i][j:min(j+3, len(got[i]))], want[i][j:min(j+3, len(want[i]))])
					}
				}
			}
			c := srv.Counters()
			if cs.Dropped() != 0 || c.NotifyDropped != 0 {
				t.Errorf("client Dropped() %d, server NotifyDropped %d; want 0", cs.Dropped(), c.NotifyDropped)
			}
			if received != c.Notifies || c.Notifies != c.Changed {
				t.Errorf("client received %d notifies, server queued %d of %d changed words", received, c.Notifies, c.Changed)
			}
			if capacity < queueCap && inOrder == 0 {
				t.Errorf("cap %d: no request fit the queue; the test lost its ordered half", capacity)
			}
			t.Logf("cap %d: %d words changed, %d frames out, %d of %d requests compared in order",
				capacity, c.Changed, c.FramesOut, inOrder, requests)
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
	rt, srv := newServer(t, core.Config{Backend: core.BackendImmediate, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var srvReads, srvWrites, cliReads, cliWrites atomic.Int64
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

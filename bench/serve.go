package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/sched"
	"dtt/internal/serve"
)

// serveWorkload drives an in-process serve.Server over loopback from
// nproc client goroutines, each with its own session and region. It is a
// closed loop: a Session is a synchronous single-caller API, so callers
// that wait for their reply are the honest model. The request is both the
// unit and the op.
//
// serve_rr sends the smallest request (one changing word, no
// subscription): two round trips, notify path idle. serve_notify
// subscribes and changes 16 words a request, so 16 CHANGE_NOTIFY frames
// come back before the WAIT reply and are applied to a client cache; the
// clock stops when the cache is up to date.
type serveWorkload struct{ notify bool }

func (w serveWorkload) name() string {
	if w.notify {
		return "serve_notify"
	}
	return "serve_rr"
}

// Frozen sizes.
const (
	serveWords       = 256
	serveNotifyWords = 16
	serveWarmReqs    = 2000
	serveProbeReqs   = 5000 // null-RTT and direct-call probes of a traced run
)

func (w serveWorkload) words() int {
	if w.notify {
		return serveNotifyWords
	}
	return 1
}

type serveClient struct {
	sess   *serve.Session
	handle uint32
	rng    *sched.Scheduler
	// cache is the client's view of its region: on serve_notify it is
	// maintained from notifications, on serve_rr from what was sent.
	cache []mem.Word
	vals  []mem.Word
	next  mem.Word // strictly increasing, so every word sent changes
	tr    *tracer

	reqs, failed     int64
	gaps, recoveries int64
	wall             time.Duration
	err              error
}

type serveInstance struct {
	w        serveWorkload
	rt       *core.Runtime
	srv      *serve.Server
	clients  []*serveClient
	traced   bool
	failures []string

	dialAttach time.Duration
	// Sums over the traced trials.
	reqs    int64
	core    coreCounts
	heap    heapCounts
	wire    serve.Counters
	samples []counterSample
}

func (w serveWorkload) setup(seed uint64, traced bool) (instance, error) {
	rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 1, Telemetry: traced})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	in := &serveInstance{w: w, rt: rt, srv: serve.NewServer(rt, serve.Options{}), traced: traced}
	addr, err := in.srv.Start("127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	t0 := now()
	for i := 0; i < producers(); i++ {
		c, err := w.dial(addr, seed+uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			in.stop()
			return nil, fmt.Errorf("%s: client %d: %w", w.name(), i, err)
		}
		if traced {
			c.tr = newTracer()
		}
		in.clients = append(in.clients, c)
	}
	in.dialAttach = time.Duration(now() - t0)
	in.each(func(c *serveClient) {
		for i := 0; i < serveWarmReqs && c.err == nil; i++ {
			c.request(w, nil)
		}
	})
	if err := in.firstErr(); err != nil || in.failedReqs() > 0 {
		in.stop()
		return nil, fmt.Errorf("%s: warm-up: %d failed requests, error %v", w.name(), in.failedReqs(), err)
	}
	for _, c := range in.clients {
		c.reqs = 0
	}
	return in, nil
}

func (w serveWorkload) dial(addr string, seed uint64) (*serveClient, error) {
	sess, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &serveClient{sess: sess, rng: sched.New(seed), cache: make([]mem.Word, serveWords), vals: make([]mem.Word, w.words())}
	if c.handle, err = sess.Attach("r", serveWords, 0, serveWords); err == nil && w.notify {
		err = sess.Subscribe(c.handle)
	}
	if err != nil {
		sess.Close()
		return nil, err
	}
	return c, nil
}

// each runs f on every client, each on its own goroutine, and waits.
func (in *serveInstance) each(f func(*serveClient)) {
	var wg sync.WaitGroup
	for _, c := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

func (in *serveInstance) firstErr() error {
	for _, c := range in.clients {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

func (in *serveInstance) failedReqs() (n int64) {
	for _, c := range in.clients {
		n += c.failed
	}
	return n
}

// request sends one request; its span runs from just before the request
// is encoded to after its last notification is applied to the cache. A
// request whose replies are wrong counts as failed; a transport error
// ends the client.
func (c *serveClient) request(w serveWorkload, tr *tracer) {
	lo := c.rng.Pick(serveWords - len(c.vals) + 1)
	for i := range c.vals {
		c.next++
		c.vals[i] = c.next
	}
	c.reqs++
	rs := tr.begin(spRequest, -1, c.reqs)

	sp := tr.begin(spServeBatch, rs, c.reqs)
	changed, err := c.sess.Batch(c.handle, lo, c.vals)
	tr.end(sp)
	if err == nil {
		sp = tr.begin(spServeWait, rs, c.reqs)
		err = c.sess.Wait(c.handle)
		tr.end(sp)
	}
	if err != nil {
		c.err = err
		c.failed++
		tr.end(rs)
		return
	}
	ok := changed == len(c.vals)
	if w.notify {
		sp = tr.begin(spServeDrain, rs, c.reqs)
		ns := c.sess.Notifies()
		for _, n := range ns {
			c.cache[n.Index] = n.Value
		}
		gap := int64(c.sess.TakeGap())
		if gap > 0 {
			// Notifications were shed: the cache may be stale, re-read it.
			c.gaps += gap
			c.recoveries++
			ws, err := c.sess.Read(c.handle, 0, serveWords)
			if err != nil {
				c.err = err
				ok = false
			}
			copy(c.cache, ws)
		}
		tr.end(sp)
		ok = ok && int64(len(ns))+gap >= int64(len(c.vals)) && slices.Equal(c.cache[lo:lo+len(c.vals)], c.vals)
	} else {
		c.cache[lo] = c.vals[0]
	}
	tr.end(rs)
	if !ok {
		c.failed++
	}
}

func (in *serveInstance) trial(d time.Duration, spanShare float64) trialResult {
	var c0 coreCounts
	var h0 heapCounts
	var w0 serve.Counters
	if in.traced {
		c0, h0, w0 = readCore(in.rt), readHeap(), in.srv.Counters()
		in.samples = append(in.samples, in.sample("start", c0, w0))
	}
	for _, c := range in.clients {
		c.tr.allow(spanShare)
		c.reqs, c.failed = 0, 0
	}
	cpu0 := cpuNow()
	in.each(func(c *serveClient) {
		start := now()
		end := start + int64(d)
		for c.err == nil {
			c.request(in.w, c.tr)
			if now() >= end {
				break
			}
		}
		c.wall = time.Duration(now() - start)
	})
	res := trialResult{cpu: cpuNow() - cpu0}
	for _, c := range in.clients {
		res.ops += c.reqs
		res.failed += c.failed
		res.wall = max(res.wall, c.wall)
		if c.err != nil {
			in.failures = append(in.failures, fmt.Sprintf("%s: client: %v", in.w.name(), c.err))
		}
	}
	if res.failed > 0 {
		in.failures = append(in.failures, fmt.Sprintf("%s: %d requests got wrong replies", in.w.name(), res.failed))
	}
	res.attempted = res.ops
	if in.traced {
		c1, w1 := readCore(in.rt), in.srv.Counters()
		in.core.addDelta(c0, c1)
		in.heap.addDelta(h0, readHeap())
		addWire(&in.wire, w0, w1)
		in.reqs += res.ops
		in.samples = append(in.samples, in.sample("end", c1, w1))
	}
	return res
}

func addWire(sum *serve.Counters, before, after serve.Counters) {
	sum.FramesIn += after.FramesIn - before.FramesIn
	sum.FramesOut += after.FramesOut - before.FramesOut
	sum.BytesIn += after.BytesIn - before.BytesIn
	sum.BytesOut += after.BytesOut - before.BytesOut
	sum.Notifies += after.Notifies - before.Notifies
	sum.NotifyDropped += after.NotifyDropped - before.NotifyDropped
	sum.Errors += after.Errors - before.Errors
}

func (in *serveInstance) sample(edge string, c coreCounts, w serve.Counters) counterSample {
	vs := c.values()
	vs["serve.frames_in"], vs["serve.frames_out"] = w.FramesIn, w.FramesOut
	vs["serve.bytes_in"], vs["serve.bytes_out"] = w.BytesIn, w.BytesOut
	vs["serve.notifies"], vs["serve.notify_dropped"], vs["serve.errors"] = w.Notifies, w.NotifyDropped, w.Errors
	return counterSample{AtNs: now(), Trial: len(in.samples) / 2, Edge: edge, Values: vs}
}

// spanQuantiles returns the p50 and p99 in us of one span kind over every
// client's tracer.
func (in *serveInstance) spanQuantiles(kind spanKind) (p50, p99 float64) {
	var ds []int64
	for _, c := range in.clients {
		ds = append(ds, c.tr.durations(kind)...)
	}
	slices.Sort(ds)
	return quantile(ds, 0.5) / 1e3, quantile(ds, 0.99) / 1e3
}

func (in *serveInstance) layers() map[string]float64 {
	m := map[string]float64{}
	reqs := float64(in.reqs)
	in.core.report(m, reqs)
	in.heap.report(m, reqs)
	m["serve.request_p50_us"], m["serve.request_p99_us"] = in.spanQuantiles(spRequest)
	m["serve.batch_rtt_p50_us"], m["serve.batch_rtt_p99_us"] = in.spanQuantiles(spServeBatch)
	m["serve.wait_rtt_p50_us"], m["serve.wait_rtt_p99_us"] = in.spanQuantiles(spServeWait)
	m["serve.drain_p50_us"], _ = in.spanQuantiles(spServeDrain)
	m["serve.frames_in_per_req"] = ratio(float64(in.wire.FramesIn), reqs)
	m["serve.frames_out_per_req"] = ratio(float64(in.wire.FramesOut), reqs)
	m["serve.bytes_in_per_req"] = ratio(float64(in.wire.BytesIn), reqs)
	m["serve.bytes_out_per_req"] = ratio(float64(in.wire.BytesOut), reqs)
	m["serve.notifies"] = ratio(float64(in.wire.Notifies), reqs)
	m["serve.notify_dropped"] = float64(in.wire.NotifyDropped)
	m["serve.errors"] = float64(in.wire.Errors)
	for _, c := range in.clients {
		m["serve.gaps"] += float64(c.gaps)
		m["serve.recoveries"] += float64(c.recoveries)
	}
	m["serve.dial_attach_ms"] = float64(in.dialAttach) / 1e6
	for _, h := range in.srv.TelemetrySnapshot().Histograms {
		if h.Name == "dtt_serve_notify_latency_ns" {
			m["serve.notify_lat_p50_us"] = h.Quantile(0.5) / 1e3
		}
	}

	// The floors, probed on an otherwise idle plane. A Barrier on an idle
	// session is one empty frame each way: socket plus framing, nothing
	// else.
	c := in.clients[0]
	null := make([]int64, 0, serveProbeReqs)
	for i := 0; i < serveProbeReqs && c.err == nil; i++ {
		t0 := now()
		c.err = c.sess.Barrier()
		null = append(null, now()-t0)
	}
	slices.Sort(null)
	m["serve.null_rtt_p50_us"] = quantile(null, 0.5) / 1e3
	if in.w.notify {
		m["serve.notify_cost_us"] = (m["serve.wait_rtt_p50_us"] - m["serve.null_rtt_p50_us"]) / serveNotifyWords
	}
	direct, err := in.w.direct()
	if err != nil {
		in.failures = append(in.failures, err.Error())
	}
	m["core.request_direct_us"] = direct
	return m
}

// direct times the request's core share: the same TStoreBatch + Wait the
// session handler issues, with a body shaped like the notify body (load
// the word, append under a lock), called in-process with no socket.
func (w serveWorkload) direct() (p50us float64, err error) {
	rt, err := core.New(core.Config{Backend: core.BackendImmediate, Workers: 1})
	if err != nil {
		return 0, fmt.Errorf("%s: direct: %w", w.name(), err)
	}
	defer rt.Close()
	r := rt.NewRegion("direct", serveWords)
	var mu sync.Mutex
	var box []mem.Word
	t := rt.Register("direct", func(tg core.Trigger) {
		if !w.notify {
			return // an unsubscribed handle's body returns at once
		}
		v := tg.Region.Load(tg.Index)
		mu.Lock()
		box = append(box, v)
		mu.Unlock()
	})
	if err := rt.Attach(t, r, 0, serveWords); err != nil {
		return 0, fmt.Errorf("%s: direct: %w", w.name(), err)
	}
	rng := sched.New(1)
	vals := make([]mem.Word, w.words())
	var next mem.Word
	ds := make([]int64, 0, serveProbeReqs)
	for i := 0; i < serveWarmReqs+serveProbeReqs; i++ {
		lo := rng.Pick(serveWords - len(vals) + 1)
		for j := range vals {
			next++
			vals[j] = next
		}
		t0 := now()
		r.TStoreBatch(lo, vals)
		rt.Wait(t)
		mu.Lock()
		box = box[:0]
		mu.Unlock()
		if i >= serveWarmReqs {
			ds = append(ds, now()-t0)
		}
	}
	slices.Sort(ds)
	return quantile(ds, 0.5) / 1e3, nil
}

func (in *serveInstance) trace() ([]*tracer, []counterSample) {
	var ts []*tracer
	for _, c := range in.clients {
		ts = append(ts, c.tr)
	}
	return ts, in.samples
}

// stop closes the sessions, the server and the runtime, waiting for the
// server's goroutines.
func (in *serveInstance) stop() {
	for _, c := range in.clients {
		c.sess.Close()
	}
	if err := in.srv.Close(); err != nil {
		in.failures = append(in.failures, fmt.Sprintf("%s: server: %v", in.w.name(), err))
	}
	in.rt.Close()
}

// finish re-reads every client's region after a final Barrier and counts
// the cache words that are stale, then checks the loss accounting and the
// conservation identity.
func (in *serveInstance) finish() (failed int64, failures []string) {
	var dropped int64
	for i, c := range in.clients {
		if c.err != nil {
			continue // already reported by the trial it ended
		}
		err := c.sess.Barrier()
		var truth []mem.Word
		if err == nil {
			truth, err = c.sess.Read(c.handle, 0, serveWords)
		}
		if err != nil {
			in.failures = append(in.failures, fmt.Sprintf("%s: client %d: final read: %v", in.w.name(), i, err))
			failed++
			continue
		}
		stale := int64(0)
		for j, v := range truth {
			if c.cache[j] != v {
				stale++
			}
		}
		if stale > 0 {
			in.failures = append(in.failures, fmt.Sprintf("%s: client %d: %d stale cache words after the final Barrier", in.w.name(), i, stale))
			failed += stale
		}
		dropped += int64(c.sess.Dropped())
	}
	wire := in.srv.Counters()
	if wire.NotifyDropped != dropped {
		in.failures = append(in.failures, fmt.Sprintf("%s: client gaps %d != server NotifyDropped %d", in.w.name(), dropped, wire.NotifyDropped))
		failed++
	}
	if wire.Errors != 0 {
		in.failures = append(in.failures, fmt.Sprintf("%s: %d ERROR replies", in.w.name(), wire.Errors))
		failed += wire.Errors
	}
	in.failures = append(in.failures, checkIdentity(in.w.name(), in.rt.Stats())...)
	in.stop()
	return failed, in.failures
}

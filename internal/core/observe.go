// The observer seam. The protocol sanitizer (Config.Checker), the telemetry
// plane (Config.Telemetry) and the trace recorder (Config.Recorder) watch the
// trigger pipeline and decide nothing in it. New resolves them into
// Runtime.obs, and the package reaches them only through the hooks below,
// the only code that knows what a feature does with an event. A hook is an
// inlined gate — one test of the attached set against the features that
// implement it, all a call site pays while they are off — and, where it
// makes more than one call, an outlined ...Slow body. A feature is never
// called for a hook it does not implement, and only the sanitizer pays for
// the goroutine id. The schedule of BackendSeeded is no observer: it decides
// what runs, in pickLocked and afterWrite.
package core

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"sync"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/sanitize"
	"dtt/internal/telemetry"
	"dtt/internal/trace"
)

// CheckMode selects the protocol sanitizer mode. See internal/sanitize.
type CheckMode = sanitize.Mode

// Sanitizer modes.
const (
	// CheckOff disables the sanitizer (the default); accesses pay one
	// test only.
	CheckOff = sanitize.CheckOff
	// CheckStrict threads a vector-clock happens-before layer through
	// triggering stores, Wait/Barrier, support-thread entry/exit and
	// region accesses, and records protocol violations (see
	// Runtime.Violations). Region accesses become substantially slower;
	// intended for tests and debugging, not production runs.
	CheckStrict = sanitize.CheckStrict
)

// Violation is a sanitizer diagnostic. See sanitize.Violation.
type Violation = sanitize.Violation

// observers are the attached features: on is their set, and each pointer is
// nil unless its feature is in it.
type observers struct {
	on    feature
	check *sanitize.Checker
	tel   *telemetry.T
	rec   *recording
}

type feature uint8

const (
	withChecker feature = 1 << iota
	withTelemetry
	withRecorder
)

// recording is the recorder and its release map: the trace task that
// released each pending queue entry, from its admission to its dispatch.
// mu is a leaf lock (admission holds the dispatch lock).
type recording struct {
	*trace.Recorder
	mu      sync.Mutex
	release map[releaseKey]trace.TaskID //dtt:guards mu
}

type releaseKey struct {
	thread ThreadID
	addr   mem.Addr
}

// attachObservers resolves the configured features into rt.obs. Telemetry
// stamps each enqueue with its clock, for the trigger->dispatch latency, and
// serves the metrics exporter on Config.MetricsAddr; the recorder watches the
// address space as a probe.
func (rt *Runtime) attachObservers() error {
	o := &rt.obs
	if rt.cfg.Checker != CheckOff {
		o.on, o.check = o.on|withChecker, sanitize.NewChecker()
	}
	if rt.cfg.Telemetry {
		o.on, o.tel = o.on|withTelemetry, telemetry.New()
		rt.d.tq.SetClock(telemetry.Now)
	}
	if rec := rt.cfg.Recorder; rec != nil {
		o.on |= withRecorder
		o.rec = &recording{Recorder: rec, release: make(map[releaseKey]trace.TaskID)}
		rt.sys.AttachProbe(rec)
	}
	if rt.cfg.MetricsAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", rt.cfg.MetricsAddr)
	if err != nil {
		return fmt.Errorf("core: metrics listener: %w", err)
	}
	rt.metricsSrv = telemetry.Serve(ln, rt)
	return nil
}

// checkGoid is the caller's goroutine id for the sanitizer, zero without
// it: goid costs a stack read. A write resolves it once for its words.
func (o *observers) checkGoid() uint64 {
	if o.on&withChecker == 0 {
		return 0
	}
	return goid()
}

// goid returns the current goroutine's id, parsed from the stack header, for
// the sanitizer alone: it names the agent of each checked access, and no
// dispatch path asks for it. It is no cheap read: runtime.Stack walks and
// symbolises the whole stack to print one line of it, about 4.5 µs at a
// shallow stack on a 2-vCPU Xeon and more as the stack deepens — part of
// CheckStrict's price, once per checked access. A parse failure panics: a
// zero-valued fallback would silently fold every goroutine into one agent,
// and a Go version bump would blind the sanitizer without a word.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const header = "goroutine "
	if len(s) < len(header) || string(s[:len(header)]) != header {
		panic(fmt.Sprintf("core: goid: unrecognised stack header %q", s))
	}
	id, digits := uint64(0), 0
	for i := len(header); i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		id = id*10 + uint64(s[i]-'0')
		digits++
	}
	if digits == 0 || id == 0 {
		panic(fmt.Sprintf("core: goid: cannot parse goroutine id from header %q", s))
	}
	return id
}

// write is pipeline stage one, the outcome of each word of a triggering
// write by goroutine g. The recorder reclassifies the store as a tstore. The
// sanitizer stamps a changing store; a silent one publishes nothing.
func (o *observers) write(r *Region, i int, changed bool, g uint64) {
	if o.on&(withChecker|withRecorder) != 0 {
		o.writeSlow(r, i, changed, g)
	}
}

func (o *observers) writeSlow(r *Region, i int, changed bool, g uint64) {
	if o.rec != nil {
		o.rec.NoteTStore()
	}
	if o.check != nil && changed {
		o.check.OnStore(g, r.Name(), i, r.buf.Addr(i))
	}
}

// access is the sanitizer's hook for an access to word i that is no
// triggering write: a Load, or a Store that changed the word. A TUpdate
// publishes nothing until its merge, which reports through write.
func (o *observers) access(r *Region, i int, k accessKind) {
	if o.on&withChecker != 0 {
		o.accessSlow(r, i, k)
	}
}

func (o *observers) accessSlow(r *Region, i int, k accessKind) {
	k(o.check, goid(), r.Name(), i, r.buf.Addr(i))
}

// accessKind is the sanitizer's event for an access.
type accessKind = func(*sanitize.Checker, uint64, string, int, mem.Addr)

var accLoad, accStore accessKind = (*sanitize.Checker).OnLoad, (*sanitize.Checker).OnStore

// admit is the admission hook, under the dispatch lock: the queue's verdict st
// on trigger (t, addr) of g's write. The sanitizer records the release edge
// on every outcome, each of which ends in an instance that observes the
// store; the recorder notes where the entry was released, unless it
// overflowed (an inline run belongs to the writer's task).
func (o *observers) admit(g uint64, t ThreadID, addr mem.Addr, st queue.EnqueueStatus) {
	if o.on&(withChecker|withRecorder) != 0 {
		o.admitSlow(g, t, addr, st)
	}
}

func (o *observers) admitSlow(g uint64, t ThreadID, addr mem.Addr, st queue.EnqueueStatus) {
	if o.check != nil {
		o.check.OnTrigger(g, t)
	}
	if o.rec != nil && st != queue.Overflowed {
		o.rec.mu.Lock()
		o.rec.release[releaseKey{t, addr}] = o.rec.ReleasePoint()
		o.rec.mu.Unlock()
	}
}

// queueDepth, batchSize, clock and merged are telemetry's samples: the
// depth of queue tq after an admission settled into it, a batch's span, and
// the latency (from clock's t0) and word count n of a merge.
func (o *observers) queueDepth(tq *queue.ThreadQueue) {
	if o.on&withTelemetry != 0 {
		o.queueDepthSlow(tq)
	}
}

// Outlined by hand: inlined into queueDepth it would price the gate out of
// the inliner's budget.
//
//go:noinline
func (o *observers) queueDepthSlow(tq *queue.ThreadQueue) {
	o.tel.QueueDepth.Observe(int64(tq.Len()))
}

func (o *observers) batchSize(n int) {
	if o.on&withTelemetry != 0 {
		o.tel.BatchSize.Observe(int64(n))
	}
}

func (o *observers) clock() int64 {
	if o.on&withTelemetry == 0 {
		return 0
	}
	return telemetry.Now()
}

func (o *observers) merged(t0 int64, n int) {
	if o.on&withTelemetry != 0 {
		o.mergedSlow(t0, n)
	}
}

func (o *observers) mergedSlow(t0 int64, n int) {
	o.tel.MergeLatency.Observe(telemetry.Now() - t0)
	o.tel.DeltaOccupancy.Observe(int64(n))
}

// instance is what telemetry keeps across one body in flight.
type instance struct {
	start  int64
	task   *rtrace.Task
	region *rtrace.Region
}

// enter and exit bracket one body of te, for entry e, run by goroutine g,
// whether it returns or panics. Telemetry observes the trigger->dispatch
// latency of an entry that sat in a queue and the run duration, labels the
// goroutine so CPU profiles attribute samples to the thread, and opens a
// runtime/trace task and region while a trace is collected; none of it
// allocates with tracing off (the labels are built at Register). The
// sanitizer enters and exits the thread's agent.
func (o *observers) enter(te *threadEntry, e *queue.Entry, g uint64) instance {
	if o.on&(withChecker|withTelemetry) == 0 {
		return instance{}
	}
	return o.enterSlow(te, e, g)
}

func (o *observers) enterSlow(te *threadEntry, e *queue.Entry, g uint64) (in instance) {
	if o.tel != nil {
		if e.T0 != 0 {
			o.tel.TriggerLatency.Observe(telemetry.Now() - e.T0)
		}
		pprof.SetGoroutineLabels(te.labels)
		if rtrace.IsEnabled() {
			var ctx context.Context
			ctx, in.task = rtrace.NewTask(te.labels, "dtt.instance")
			rtrace.Log(ctx, "dtt.thread", te.name)
			in.region = rtrace.StartRegion(ctx, "dtt.run")
		}
		in.start = telemetry.Now()
	}
	if o.check != nil {
		o.check.EnterSupport(g, e.Thread)
	}
	return in
}

func (o *observers) exit(t ThreadID, g uint64, in instance) {
	if o.on&(withChecker|withTelemetry) != 0 {
		o.exitSlow(t, g, in)
	}
}

func (o *observers) exitSlow(t ThreadID, g uint64, in instance) {
	if o.check != nil {
		o.check.ExitSupport(g, t)
	}
	if o.tel != nil {
		o.tel.RunDuration.Observe(telemetry.Now() - in.start)
		if in.region != nil {
			in.region.End()
			in.task.End()
		}
		// Shed the labels so idle time (or an inline run's writer) is not
		// attributed to this thread.
		pprof.SetGoroutineLabels(context.Background())
	}
}

// beginSupport and endSupport bracket an instance drain dispatches off the
// queue, which the recorder makes a support task released where entry e was
// admitted; the next Join takes it. runInline opens none: an overflowed run
// is charged to its writer's task. A panicked body's task still closes —
// what it charged was executed.
func (o *observers) beginSupport(te *threadEntry, e queue.Entry) {
	if o.on&withRecorder != 0 {
		o.beginSupportSlow(te, e)
	}
}

func (o *observers) beginSupportSlow(te *threadEntry, e queue.Entry) {
	k := releaseKey{e.Thread, e.Addr}
	o.rec.mu.Lock()
	rel, ok := o.rec.release[k]
	delete(o.rec.release, k)
	o.rec.mu.Unlock()
	if !ok {
		rel = trace.NoTask
	}
	o.rec.BeginSupport(te.name, rel)
}

func (o *observers) endSupport() {
	if o.on&withRecorder != 0 {
		o.rec.EndSupport()
	}
}

// beginJoin opens the runtime/trace region of a Wait or Barrier, a no-op
// one unless telemetry is on and a trace is collected. join closes the
// synchronisation point once it is reached — a Wait of t, or a Barrier: the
// sanitizer's join edge, the recorder's twait or tbarrier and Join, the end
// of the region.
func (o *observers) beginJoin(name string) *rtrace.Region {
	if o.on&withTelemetry == 0 {
		return nil
	}
	return rtrace.StartRegion(context.Background(), name)
}

func (o *observers) join(j *rtrace.Region, t ThreadID, barrier bool) {
	if o.on != 0 {
		o.joinSlow(j, t, barrier)
	}
}

func (o *observers) joinSlow(j *rtrace.Region, t ThreadID, barrier bool) {
	if o.check != nil {
		if barrier {
			o.check.OnBarrier(goid())
		} else {
			o.check.OnWait(goid(), t)
		}
	}
	if o.rec != nil {
		if barrier {
			o.rec.Barrier()
		} else {
			o.rec.Wait()
		}
	}
	if j != nil {
		j.End()
	}
}

// register is the hook of Register(name) = t: the sanitizer learns the
// thread, and telemetry returns the pprof labels of its instances, built
// once so that labelling one is allocation-free.
func (o *observers) register(t ThreadID, name string) context.Context {
	if o.on&(withChecker|withTelemetry) == 0 {
		return nil
	}
	return o.registerSlow(t, name)
}

func (o *observers) registerSlow(t ThreadID, name string) context.Context {
	if o.check != nil {
		o.check.RegisterThread(t, name)
	}
	if o.tel == nil {
		return nil
	}
	return pprof.WithLabels(context.Background(),
		pprof.Labels("dtt_thread", name, "dtt_thread_id", strconv.Itoa(int(t))))
}

// attach (Attach) and cancel (Cancel, under the dispatch lock; te nil for an id
// never registered) are charged a tspawn and a tcancel by the recorder,
// which also drops t's release points. The sanitizer checks the cancel
// against the run token, which every running instance holds, queued or
// inline.
func (o *observers) attach() {
	if o.on&withRecorder != 0 {
		o.rec.NoteSpawn()
	}
}

func (o *observers) cancel(t ThreadID, te *threadEntry) {
	if o.on&(withChecker|withRecorder) != 0 {
		o.cancelSlow(t, te)
	}
}

func (o *observers) cancelSlow(t ThreadID, te *threadEntry) {
	if o.check != nil {
		running := 0
		if te != nil {
			running = te.running
		}
		o.check.OnCancel(t, running)
	}
	if o.rec != nil {
		o.rec.mu.Lock()
		for k := range o.rec.release {
			if k.thread == t {
				delete(o.rec.release, k)
			}
		}
		o.rec.mu.Unlock()
		o.rec.NoteCancel()
	}
}

// free is the sanitizer's: a released region's range, whose next tenant
// must not inherit write stamps.
func (o *observers) free(lo, hi mem.Addr) {
	if o.on&withChecker != 0 {
		o.check.ReleaseRange(lo, hi)
	}
}

func (o *observers) histograms() []telemetry.HistogramSnapshot {
	if o.on&withTelemetry == 0 {
		return nil
	}
	return o.tel.Histograms()
}

// Violations returns the protocol violations the sanitizer has recorded so
// far, in detection order. It returns nil when the checker is off.
func (rt *Runtime) Violations() []Violation {
	if rt.obs.on&withChecker == 0 {
		return nil
	}
	return rt.obs.check.Violations()
}

// CheckErr returns nil if the sanitizer is off or recorded no violations,
// otherwise an error carrying the first violation and the total count.
func (rt *Runtime) CheckErr() error {
	if rt.obs.on&withChecker == 0 {
		return nil
	}
	return rt.obs.check.Err()
}

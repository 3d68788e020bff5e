package core

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/trace"
)

// cleanupDeadline bounds a test's Close of its runtime.
const cleanupDeadline = 10 * time.Second

// newRuntime builds a runtime from cfg. The test's cleanup closes it under
// cleanupDeadline; past it, it reports every goroutine's stack and returns,
// so a Close wedged on a lock that a panic left held fails in seconds and
// lets that panic surface.
func newRuntime(t testing.TB, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt.Close()
		}()
		select {
		case <-done:
		case <-time.After(cleanupDeadline):
			buf := make([]byte, 1<<20)
			t.Errorf("Close not done after %v:\n%s", cleanupDeadline, buf[:runtime.Stack(buf, true)])
		}
	})
	return rt
}

func newDeferred(t *testing.T, mut func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{Backend: BackendDeferred}
	if mut != nil {
		mut(&cfg)
	}
	rt := newRuntime(t, cfg)
	return rt
}

func TestSilentTStoreSkipsThread(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	runs := 0
	id := rt.Register("count", func(Trigger) { runs++ })
	if err := rt.Attach(id, data, 0, 4); err != nil {
		t.Fatal(err)
	}

	data.TStore(0, 7) // 0 -> 7: fires
	data.TStore(0, 7) // silent: must not fire
	rt.Wait(id)

	if runs != 1 {
		t.Fatalf("thread ran %d times, want 1 (silent store must skip)", runs)
	}
	s := rt.Stats()
	if s.TStores != 2 || s.Silent != 1 || s.Fired != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTriggerCarriesLocation(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 8)
	var got Trigger
	id := rt.Register("loc", func(tg Trigger) { got = tg })
	rt.Attach(id, data, 2, 6)

	data.TStore(3, 99)
	rt.Wait(id)

	if got.Thread != id || got.Region != data || got.Index != 3 {
		t.Fatalf("trigger = %+v, want thread %d region data index 3", got, id)
	}
	if got.Addr != data.Buffer().Addr(3) {
		t.Fatalf("trigger addr %#x, want %#x", got.Addr, data.Buffer().Addr(3))
	}
}

func TestTStoreOutsideAttachedRangeDoesNotFire(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 8)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 4)

	data.TStore(5, 1) // changed, but outside [0,4)
	rt.Wait(id)
	if runs != 0 {
		t.Fatalf("thread fired for store outside its trigger range")
	}
}

func TestSameAddressSquashes(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 4)

	data.TStore(0, 1) // enqueue
	data.TStore(0, 2) // squash (same address pending)
	data.TStore(1, 1) // enqueue (different address)
	rt.Wait(id)

	if runs != 2 {
		t.Fatalf("thread ran %d times, want 2", runs)
	}
	s := rt.Stats()
	if s.Enqueued != 2 || s.Squashed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSquashedInstanceSeesLatestValue(t *testing.T) {
	// The paper's guarantee: a support thread reads memory at execution
	// time, so squashing intermediate triggers is safe.
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 1)
	var seen []uint64
	id := rt.Register("r", func(tg Trigger) { seen = append(seen, tg.Region.Load(tg.Index)) })
	rt.Attach(id, data, 0, 1)

	data.TStore(0, 1)
	data.TStore(0, 2)
	data.TStore(0, 3)
	rt.Wait(id)

	if len(seen) != 1 || seen[0] != 3 {
		t.Fatalf("instance saw %v, want one execution observing 3", seen)
	}
}

func TestMultipleThreadsOnOneAddress(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 2)
	var a, b int
	ida := rt.Register("a", func(Trigger) { a++ })
	idb := rt.Register("b", func(Trigger) { b++ })
	rt.Attach(ida, data, 0, 2)
	rt.Attach(idb, data, 0, 1)

	data.TStore(0, 5)
	rt.Barrier()
	if a != 1 || b != 1 {
		t.Fatalf("a=%d b=%d, want both to fire", a, b)
	}
	data.TStore(1, 5)
	rt.Barrier()
	if a != 2 || b != 1 {
		t.Fatalf("a=%d b=%d: word 1 is only in a's range", a, b)
	}
}

func TestCascadingTriggers(t *testing.T) {
	// A support thread's own tstore fires a second thread.
	rt := newDeferred(t, nil)
	src := rt.NewRegion("src", 1)
	mid := rt.NewRegion("mid", 1)
	var final uint64
	first := rt.Register("first", func(tg Trigger) {
		mid.TStore(0, tg.Region.Load(tg.Index)*10)
	})
	second := rt.Register("second", func(tg Trigger) {
		final = tg.Region.Load(tg.Index) + 1
	})
	rt.Attach(first, src, 0, 1)
	rt.Attach(second, mid, 0, 1)

	src.TStore(0, 4)
	rt.Barrier()
	if final != 41 {
		t.Fatalf("cascade result = %d, want 41", final)
	}
}

func TestOverflowRunsInline(t *testing.T) {
	rt := newDeferred(t, func(c *Config) { c.QueueCapacity = 1 })
	data := rt.NewRegion("data", 8)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 8)

	for i := 0; i < 4; i++ {
		data.TStore(i, 1)
	}
	rt.Wait(id)
	if runs != 4 {
		t.Fatalf("runs = %d, want 4 (overflow must fall back to inline)", runs)
	}
	s := rt.Stats()
	if s.Overflowed != 3 || s.InlineRuns != 3 || s.Executed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCancelledOverflowCountsAsDropped reaches the one source of Dropped:
// an overflowed trigger whose thread a Cancel detached before its inline
// run. One batch fires four words into a capacity-1 queue — one enqueued,
// three overflowed; the first inline run cancels its own thread, which
// squashes the queued entry and leaves the other two overflowed triggers
// nothing to run.
func TestCancelledOverflowCountsAsDropped(t *testing.T) {
	rt := newDeferred(t, func(c *Config) { c.QueueCapacity = 1 })
	data := rt.NewRegion("data", 4)
	var id ThreadID
	id = rt.Register("once", func(Trigger) { rt.Cancel(id) })
	rt.Attach(id, data, 0, 4)

	data.TStoreBatch(0, []mem.Word{1, 2, 3, 4})
	rt.Barrier()
	s := rt.Stats()
	if s.Overflowed != 3 || s.InlineRuns != 1 || s.Dropped != 2 {
		t.Fatalf("Overflowed %d InlineRuns %d Dropped %d, want 3 = 1 + 2", s.Overflowed, s.InlineRuns, s.Dropped)
	}
	if s.Fired != 4 || s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("Fired identity broken: %+v", s)
	}
	if s.Executed != 0 {
		t.Fatalf("Executed = %d: the queued entry should have been squashed by the Cancel", s.Executed)
	}
}

func TestCancelSquashesPending(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 2)
	runs := 0
	id := rt.Register("r", func(Trigger) { runs++ })
	rt.Attach(id, data, 0, 2)

	data.TStore(0, 1)
	rt.Cancel(id)
	rt.Barrier()
	if runs != 0 {
		t.Fatalf("cancelled thread still ran")
	}
	// After cancel, tstores no longer fire.
	data.TStore(1, 1)
	rt.Barrier()
	if runs != 0 {
		t.Fatalf("detached thread fired")
	}
	if rt.Status(id) != queue.StatusIdle {
		t.Fatalf("cancelled thread status %v", rt.Status(id))
	}
}

func TestAttachValidation(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	id := rt.Register("r", func(Trigger) {})
	if err := rt.Attach(id, data, 2, 2); err == nil {
		t.Errorf("empty range accepted")
	}
	if err := rt.Attach(id, data, -1, 2); err == nil {
		t.Errorf("negative lo accepted")
	}
	if err := rt.Attach(id, data, 0, 5); err == nil {
		t.Errorf("hi past region end accepted")
	}
	if err := rt.Attach(ThreadID(99), data, 0, 1); err == nil {
		t.Errorf("unregistered thread accepted")
	}
	other := newDeferred(t, nil)
	foreign := other.NewRegion("foreign", 4)
	if err := rt.Attach(id, foreign, 0, 1); err == nil {
		t.Errorf("foreign region accepted")
	}
}

func TestRegisterNilPanics(t *testing.T) {
	rt := newDeferred(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("Register(nil) did not panic")
		}
	}()
	rt.Register("bad", nil)
}

// TestThreadIDsFarApartShareNothing: a pending trigger is a bit of its own
// thread's attachment, so nothing about a thread id is packed, truncated or
// bounded. Two live threads whose ids are 1<<16 apart — one dedup key when
// the queue packed the thread into 16 bits — attach to one word; one store runs both bodies, and neither
// trigger is squashed against the other. The table is padded with tombstones
// rather than by 65 535 registrations.
func TestThreadIDsFarApartShareNothing(t *testing.T) {
	for _, backend := range []Backend{BackendDeferred, BackendImmediate} {
		t.Run(backend.String(), func(t *testing.T) {
			rt := newBackend(t, backend)
			data := rt.NewRegion("data", 1)
			var lowRuns, highRuns atomic.Int64
			low := rt.Register("low", func(Trigger) { lowRuns.Add(1) })

			padded := make([]*threadEntry, int(low)+1<<16)
			tomb := &threadEntry{name: "pad"}
			for i := range padded {
				padded[i] = tomb
			}
			copy(padded, rt.threadsSnap())
			rt.mu.Lock()
			rt.threads.Store(&padded)
			rt.mu.Unlock()

			high := rt.Register("high", func(Trigger) { highRuns.Add(1) })
			if high-low != 1<<16 {
				t.Fatalf("ids %d and %d: want them 1<<16 apart", low, high)
			}
			for _, id := range []ThreadID{low, high} {
				if err := rt.Attach(id, data, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			data.TStore(0, 1)
			rt.Barrier()
			if l, h := lowRuns.Load(), highRuns.Load(); l != 1 || h != 1 {
				t.Fatalf("one store to a word both threads watch ran low %d times and high %d times, want 1 and 1", l, h)
			}
			if st := rt.Stats(); st.Fired != 2 || st.Enqueued != 2 || st.Squashed != 0 {
				t.Fatalf("Fired %d Enqueued %d Squashed %d, want 2, 2 and 0", st.Fired, st.Enqueued, st.Squashed)
			}
			assertIdentities(t, rt, "far-apart ids")
		})
	}
}

// TestOverlappingAttachmentsShareOnePendingBit: a thread attached twice over
// overlapping ranges matches twice on a word of the overlap, and both offers
// resolve to its first covering attachment's pending bit — so one store is
// one instance and one squash, as when the pending set was keyed (thread,
// address). The bit clears at the dequeue: the next changing store to the
// word enqueues again.
func TestOverlappingAttachmentsShareOnePendingBit(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 8)
	runs := 0
	id := rt.Register("twice", func(Trigger) { runs++ })
	for _, r := range [][2]int{{0, 6}, {4, 8}} {
		if err := rt.Attach(id, data, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	for round := int64(1); round <= 2; round++ {
		data.TStore(5, mem.Word(round)) // word 5 is in both ranges
		if st := rt.Stats(); st.Fired != 2*round || st.Enqueued != round || st.Squashed != round {
			t.Fatalf("round %d: Fired %d Enqueued %d Squashed %d, want %d, %d and %d",
				round, st.Fired, st.Enqueued, st.Squashed, 2*round, round, round)
		}
		rt.Wait(id)
		if int64(runs) != round {
			t.Fatalf("round %d: %d runs, want %d", round, runs, round)
		}
	}
	// Outside the overlap each range answers for its own words.
	data.TStore(0, 1)
	data.TStore(7, 1)
	rt.Wait(id)
	if st := rt.Stats(); runs != 4 || st.Enqueued != 4 || st.Squashed != 2 {
		t.Fatalf("runs %d Enqueued %d Squashed %d after one store to each range's own words, want 4, 4 and 2", runs, st.Enqueued, st.Squashed)
	}
	assertIdentities(t, rt, "overlapping attachments")
}

// TestReattachAfterCancelStartsClean: Cancel squashes a thread's pending
// entries and drops its attachments, pending bits and all; attaching the same
// range again starts from an empty bitmap, so the first store to a word that
// was pending at the Cancel enqueues rather than squashing against a stale
// bit.
func TestReattachAfterCancelStartsClean(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	runs := 0
	id := rt.Register("again", func(Trigger) { runs++ })
	if err := rt.Attach(id, data, 0, 4); err != nil {
		t.Fatal(err)
	}
	data.TStore(0, 1)
	data.TStore(1, 1)
	rt.Cancel(id)
	if qc := queueCounters(rt); qc.Enqueued != 2 || qc.SquashedOut != 2 {
		t.Fatalf("queue counters %+v, want both pending entries squashed out by the Cancel", qc)
	}
	if err := rt.Attach(id, data, 0, 4); err != nil {
		t.Fatal(err)
	}
	data.TStore(0, 2)
	data.TStore(1, 2)
	if st := rt.Stats(); st.Enqueued != 4 || st.Squashed != 0 {
		t.Fatalf("Enqueued %d Squashed %d after re-attach, want 4 and 0: a pending bit outlived the Cancel", st.Enqueued, st.Squashed)
	}
	rt.Wait(id)
	if runs != 2 {
		t.Fatalf("%d runs, want 2 (the two squashed-out entries never ran)", runs)
	}
	assertIdentities(t, rt, "re-attach after cancel")
}

func TestThreadName(t *testing.T) {
	rt := newDeferred(t, nil)
	id := rt.Register("smvp", func(Trigger) {})
	if rt.ThreadName(id) != "smvp" {
		t.Fatalf("ThreadName = %q", rt.ThreadName(id))
	}
	if rt.ThreadName(ThreadID(42)) != "thread-42" {
		t.Fatalf("unknown thread name = %q", rt.ThreadName(ThreadID(42)))
	}
}

func TestConfigValidation(t *testing.T) {
	for _, row := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{Recorder: trace.NewRecorder(nil)}, true},
		{Config{Backend: BackendSeeded, Recorder: trace.NewRecorder(nil)}, true},
		{Config{Backend: BackendImmediate, Recorder: trace.NewRecorder(nil)}, false},
		{Config{Backend: Backend(3)}, false},
		{Config{Backend: Backend(-1)}, false},
	} {
		rt, err := New(row.cfg)
		if err == nil {
			rt.Close()
		}
		if (err == nil) != row.ok {
			t.Errorf("New(%v, recorder %v): err = %v, want accepted = %v", row.cfg.Backend, row.cfg.Recorder != nil, err, row.ok)
		}
	}
}

// TestNewRejectsUnknownBackend: a Backend outside the three defined values
// used to build a runtime that started no worker and drained like the
// deferred backend while reporting itself as "Backend(9)".
func TestNewRejectsUnknownBackend(t *testing.T) {
	for _, b := range []Backend{Backend(-1), BackendSeeded + 1, Backend(9)} {
		if rt, err := New(Config{Backend: b}); err == nil {
			rt.Close()
			t.Errorf("New accepted undefined backend %v", b)
		}
	}
}

// TestConfigSurface pins the knob count: a Config field is something a
// caller varies, so each row names a non-test caller that sets it. Adding a
// field means adding a row here — and a caller to cite.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Backend",       // every caller; bench/, cmd/dttrun -backend
		"Workers",       // cmd/dttserve -workers, bench/, examples
		"QueueCapacity", // harness/sweeps.go (F6/F10), cmd/dttrun -queue, bench/
		"Recorder",      // harness/harness.go, harness/characterize.go
		"Checker",       // cmd/dttrun -check, cmd/dttserve -check
		"SchedSeed",     // cmd/dttrun -sched-seed
		"Telemetry",     // bench/ (-trace), cmd/dttserve
		"MetricsAddr",   // cmd/dttrun -metrics
	}
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Config fields:\n got %v\nwant %v", got, want)
	}
}

func TestBackendString(t *testing.T) {
	if BackendDeferred.String() != "deferred" || BackendImmediate.String() != "immediate" || BackendSeeded.String() != "seeded" {
		t.Fatalf("backend names wrong")
	}
}

// TestBackendSurface pins the enum the way TestConfigSurface pins the knobs:
// walking Backend(0..) until String falls through to the numeric form must
// name exactly the two execution models and the one schedule.
func TestBackendSurface(t *testing.T) {
	var got []string
	for b := Backend(0); !strings.HasPrefix(b.String(), "Backend("); b++ {
		got = append(got, b.String())
	}
	if want := []string{"deferred", "immediate", "seeded"}; !slices.Equal(got, want) {
		t.Fatalf("backends:\n got %v\nwant %v", got, want)
	}
}

// TestRuntimesShareOneCacheLineLayout: Runtime is not padded — producers,
// workers and waiters share its lines by design of the field order — so how
// its fields fall against 64-byte lines must at least be the same for every
// Runtime. It is while the allocator's size class for the struct is a
// multiple of 64 (384 today). A field that grows it into a class that is not
// (472 bytes -> class 480) makes successive Runtimes alternate between two
// layouts, and a benchmark that builds several reads a different machine from
// one instance, and one run, to the next.
func TestRuntimesShareOneCacheLineLayout(t *testing.T) {
	var first uintptr
	for i := 0; i < 8; i++ {
		rt := newDeferred(t, nil)
		off := uintptr(unsafe.Pointer(rt)) % 64
		if i == 0 {
			first = off
		} else if off != first {
			t.Fatalf("Runtime %d sits at %d mod 64, the first at %d (unsafe.Sizeof(Runtime{}) = %d)",
				i, off, first, unsafe.Sizeof(Runtime{}))
		}
	}
}

// TestDispatcherSize: the dispatch plane is its own allocation in the
// 128-byte size class (113 to 128 bytes; the class below is 112), whose
// objects fill two whole cache lines, so the dispatch lock and busy count
// share no line with another object. There is no padding field, so a field
// that grows it past 128 bytes moves it to the 144-byte class, which does not.
func TestDispatcherSize(t *testing.T) {
	if got := unsafe.Sizeof(dispatcher{}); got <= 112 || got > 128 {
		t.Fatalf("unsafe.Sizeof(dispatcher{}) = %d, want the 128-byte size class (113 to 128)", got)
	}
}

func TestImmediateBackendParallelExecution(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 4})
	data := rt.NewRegion("data", 64)
	var runs atomic.Int64
	id := rt.Register("r", func(tg Trigger) {
		runs.Add(1)
	})
	rt.Attach(id, data, 0, 64)

	for i := 0; i < 64; i++ {
		data.TStore(i, uint64(i+1))
	}
	rt.Wait(id)
	if got := runs.Load(); got != 64 {
		t.Fatalf("runs = %d, want 64", got)
	}
	if rt.Status(id) != queue.StatusIdle {
		t.Fatalf("status after Wait: %v", rt.Status(id))
	}
}

func TestImmediateSilentStoresStillSkip(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
	data := rt.NewRegion("data", 4)
	var runs atomic.Int64
	id := rt.Register("r", func(Trigger) { runs.Add(1) })
	rt.Attach(id, data, 0, 4)

	data.TStore(0, 5)
	rt.Wait(id)
	for i := 0; i < 100; i++ {
		data.TStore(0, 5) // all silent
	}
	rt.Wait(id)
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
}

func TestImmediatePerThreadSerialisation(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 4, QueueCapacity: 256})
	// One trigger word per instance: distinct addresses are never squashed,
	// so all 50 queue up behind the four workers.
	data := rt.NewRegion("data", 50)
	var concurrent, maxConcurrent atomic.Int64
	id := rt.Register("serial", func(Trigger) {
		c := concurrent.Add(1)
		for {
			m := maxConcurrent.Load()
			if c <= m || maxConcurrent.CompareAndSwap(m, c) {
				break
			}
		}
		concurrent.Add(-1)
	})
	rt.Attach(id, data, 0, 50)
	for i := 0; i < 50; i++ {
		data.TStore(i, 1)
	}
	rt.Barrier()
	if maxConcurrent.Load() > 1 {
		t.Fatalf("instances of one thread ran concurrently: max %d", maxConcurrent.Load())
	}
}

func TestImmediateDistinctThreadsRunConcurrently(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
	a := rt.NewRegion("a", 1)
	b := rt.NewRegion("b", 1)
	// Rendezvous: each thread waits for the other's start signal; this
	// only completes if they run concurrently.
	sa := make(chan struct{})
	sb := make(chan struct{})
	ida := rt.Register("a", func(Trigger) { close(sa); <-sb })
	idb := rt.Register("b", func(Trigger) { close(sb); <-sa })
	rt.Attach(ida, a, 0, 1)
	rt.Attach(idb, b, 0, 1)
	a.TStore(0, 1)
	b.TStore(0, 1)
	rt.Barrier()
}

func TestCloseIdempotent(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
	rt.Close()
	rt.Close()
}

func TestStatsConservation(t *testing.T) {
	rt := newDeferred(t, func(c *Config) { c.QueueCapacity = 2 })
	data := rt.NewRegion("data", 16)
	id := rt.Register("r", func(Trigger) {})
	rt.Attach(id, data, 0, 16)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 16; i++ {
			data.TStore(i, uint64(round*(i%5)))
		}
		rt.Wait(id)
	}
	s := rt.Stats()
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("fired %d != enqueued %d + squashed %d + overflowed %d", s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	}
	if s.Overflowed != s.InlineRuns+s.Dropped {
		t.Fatalf("overflowed %d != inline %d + dropped %d", s.Overflowed, s.InlineRuns, s.Dropped)
	}
	if s.TStores-s.Silent == 0 {
		t.Fatalf("no value-changing tstores in a test designed to have them")
	}
}

func TestSilentFractionHelper(t *testing.T) {
	s := Stats{TStores: 10, Silent: 7}
	if s.SilentFraction() != 0.7 {
		t.Fatalf("SilentFraction = %v", s.SilentFraction())
	}
	if (Stats{}).SilentFraction() != 0 {
		t.Fatalf("empty SilentFraction not 0")
	}
	s = Stats{Fired: 4, Squashed: 1}
	if s.SquashFraction() != 0.25 {
		t.Fatalf("SquashFraction = %v", s.SquashFraction())
	}
}

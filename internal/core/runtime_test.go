package core

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/trace"
)

func newDeferred(t *testing.T, mut func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{Backend: BackendDeferred}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
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

// TestRegisterRefusedAtThreadLimit: queue.dedupKey has 16 bits for the
// thread, and threads 0 and 1<<16 share a shard at any shard count, so a
// 65 537th live thread's triggers would be squashed against thread 0's
// pending entries — lost. Registration must stop at maxThreads: an error
// through a Namespace (a tenant's ATTACH is input, and its session answers
// ERROR), a panic through Runtime.Register (the program's own bug). The table
// is filled by seeding it with tombstones rather than by 65 536 registrations.
func TestRegisterRefusedAtThreadLimit(t *testing.T) {
	rt := newDeferred(t, nil)
	full := make([]*threadEntry, maxThreads)
	tomb := &threadEntry{name: "seeded"}
	for i := range full {
		full[i] = tomb
	}
	rt.threads.Store(&full)

	ns := rt.NewNamespace("tenant")
	if id, err := ns.Register("t", func(Trigger) {}); err == nil {
		t.Fatalf("Namespace.Register handed out id %d with %d threads live; its dedup keys alias thread %d's", id, maxThreads, int(id)-maxThreads)
	}
	if n := ns.Threads(); n != 0 {
		t.Fatalf("a refused Register left the namespace owning %d threads", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Runtime.Register with %d threads live did not panic", maxThreads)
			}
		}()
		rt.Register("one-too-many", func(Trigger) {})
	}()
	if n := len(rt.threadsSnap()); n != maxThreads {
		t.Fatalf("refused registrations grew the thread table to %d", n)
	}

	// The bound is on live ids, not on registrations: a retired slot is
	// still handed out.
	rt.mu.Lock()
	rt.freeIDs = append(rt.freeIDs, 7)
	rt.mu.Unlock()
	if id, err := ns.Register("reuse", func(Trigger) {}); err != nil || id != 7 {
		t.Fatalf("Register with a free slot: id %d, err %v, want id 7", id, err)
	}
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

func TestThreadStatsFor(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("d", 8)
	id := rt.Register("named", func(Trigger) {})
	rt.Attach(id, data, 0, 4)
	rt.Attach(id, data, 4, 8)
	data.TStore(0, 1)
	data.TStore(5, 1)
	rt.Barrier()
	ts := rt.ThreadStatsFor(id)
	if ts.Name != "named" || ts.Attachments != 2 || ts.Executed != 2 {
		t.Fatalf("ThreadStatsFor = %+v", ts)
	}
	if ts := rt.ThreadStatsFor(ThreadID(99)); ts.Name != "" || ts.Attachments != 0 {
		t.Fatalf("unknown thread stats = %+v", ts)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Backend: BackendRecorded}); err == nil {
		t.Errorf("recorded backend without recorder accepted")
	}
	if _, err := New(Config{Backend: BackendDeferred, Recorder: trace.NewRecorder(nil)}); err == nil {
		t.Errorf("recorder on non-recorded backend accepted")
	}
}

// TestNewRejectsUnknownBackend: a Backend outside the four defined values
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
		"Shards",        // cmd/dttserve -shards, cmd/dttrun -shards, workloads/serving
		"Recorder",      // harness/harness.go, harness/characterize.go
		"Checker",       // cmd/dttrun -check, cmd/dttserve -check
		"SchedSeed",     // cmd/dttrun -sched-seed
		"Telemetry",     // bench/ (-trace), cmd/dttserve, workloads/serving
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
	if BackendDeferred.String() != "deferred" || BackendImmediate.String() != "immediate" || BackendRecorded.String() != "recorded" {
		t.Fatalf("backend names wrong")
	}
}

func TestImmediateBackendParallelExecution(t *testing.T) {
	rt, err := New(Config{Backend: BackendImmediate, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
	rt, err := New(Config{Backend: BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
	rt, err := New(Config{Backend: BackendImmediate, Workers: 4, QueueCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
	rt, err := New(Config{Backend: BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
	rt, err := New(Config{Backend: BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
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

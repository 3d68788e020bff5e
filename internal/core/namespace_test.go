package core

import (
	"fmt"
	"strings"

	"sync/atomic"
	"testing"
	"time"

	"dtt/internal/mem"
)

func nsRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
	return rt
}

func TestNamespaceRegionGetOrCreate(t *testing.T) {
	rt := nsRuntime(t)
	ns := rt.NewNamespace("s0")
	if ns.Name() != "s0" {
		t.Fatalf("Name() = %q, want %q", ns.Name(), "s0")
	}
	if n := ns.Threads(); n != 0 {
		t.Fatalf("fresh namespace has %d threads", n)
	}
	r1, err := ns.Region("acc", 8)
	if err != nil {
		t.Fatalf("Region: %v", err)
	}
	if !strings.HasPrefix(r1.Name(), "s0/") {
		t.Fatalf("region name %q lacks namespace prefix", r1.Name())
	}
	r2, err := ns.Region("acc", 8)
	if err != nil {
		t.Fatalf("repeat Region: %v", err)
	}
	if r1 != r2 {
		t.Fatal("repeat Region returned a different region")
	}
	if _, err := ns.Region("acc", 16); err == nil {
		t.Fatal("size-mismatched Region did not error")
	}
	if _, err := ns.Region("bad", 0); err == nil {
		t.Fatal("zero-word Region did not error")
	}
}

func TestNamespaceOwnershipEnforced(t *testing.T) {
	rt := nsRuntime(t)
	a, b := rt.NewNamespace("a"), rt.NewNamespace("b")
	ra, err := a.Region("r", 4)
	if err != nil {
		t.Fatalf("Region: %v", err)
	}
	ta, err := a.Register("t", func(Trigger) {})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	// b owns neither the thread nor the region.
	if err := b.Attach(ta, ra, 0, 4); err == nil {
		t.Fatal("Attach of foreign thread through namespace b did not error")
	}
	tb, err := b.Register("t", func(Trigger) {})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := b.Attach(tb, ra, 0, 4); err == nil {
		t.Fatal("Attach to foreign region through namespace b did not error")
	}
	if err := b.Wait(ta); err == nil {
		t.Fatal("Wait on foreign thread did not error")
	}
	if err := a.Attach(ta, ra, 0, 4); err != nil {
		t.Fatalf("legitimate Attach: %v", err)
	}
	if err := a.Wait(ta); err != nil {
		t.Fatalf("legitimate Wait: %v", err)
	}
}

func TestNamespaceIsolationPhysical(t *testing.T) {
	rt := nsRuntime(t)
	a, b := rt.NewNamespace("a"), rt.NewNamespace("b")
	var fired atomic.Int64
	ta, _ := a.Register("watch", func(Trigger) { fired.Add(1) })
	ra, _ := a.Region("r", 4)
	rb, _ := b.Region("r", 4)
	if err := a.Attach(ta, ra, 0, 4); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// Same region name, same index, different namespace: must not fire.
	for i := 0; i < 4; i++ {
		rb.TStore(i, 7)
	}
	if err := b.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if err := a.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if n := fired.Load(); n != 0 {
		t.Fatalf("cross-namespace stores fired %d triggers, want 0", n)
	}
	ra.TStore(1, 7)
	if err := a.Wait(ta); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("own-namespace store fired %d triggers, want 1", n)
	}
}

func TestNamespaceCloseCancelsOwned(t *testing.T) {
	rt := nsRuntime(t)
	ns := rt.NewNamespace("s")
	r, _ := ns.Region("r", 2)
	tid, _ := ns.Register("t", func(Trigger) {})
	if err := ns.Attach(tid, r, 0, 2); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	before := rt.Stats().Cancels
	ns.Close()
	ns.Close() // idempotent
	if got := rt.Stats().Cancels - before; got != 1 {
		t.Fatalf("Close issued %d cancels, want 1", got)
	}
	// Post-close management calls all fail cleanly.
	if _, err := ns.Region("r", 2); err == nil {
		t.Fatal("Region after Close did not error")
	}
	if _, err := ns.Register("t2", func(Trigger) {}); err == nil {
		t.Fatal("Register after Close did not error")
	}
	if err := ns.Attach(tid, r, 0, 2); err == nil {
		t.Fatal("Attach after Close did not error")
	}
	if err := ns.Wait(tid); err == nil {
		t.Fatal("Wait after Close did not error")
	}
	if err := ns.Barrier(); err == nil {
		t.Fatal("Barrier after Close did not error")
	}
	// A cancelled thread's former range no longer fires.
	if changed := r.TStore(0, 99); changed {
		st := rt.Stats()
		if st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
			t.Fatalf("counter identity broken after Close: %+v", st)
		}
	}
}

// TestNamespaceChurnBoundsResources is the session-churn acceptance test:
// repeated open → work → close cycles must not grow the arena footprint or
// the runtime thread table, because Close returns region ranges to the
// free list and retires quiet threads for ID reuse.
func TestNamespaceChurnBoundsResources(t *testing.T) {
	rt := nsRuntime(t)

	cycle := func(k int) {
		ns := rt.NewNamespace(fmt.Sprintf("s%d", k))
		r, err := ns.Region("acc", 64)
		if err != nil {
			t.Fatalf("cycle %d: Region: %v", k, err)
		}
		var runs atomic.Int64
		id, err := ns.Register("obs", func(Trigger) { runs.Add(1) })
		if err != nil {
			t.Fatalf("cycle %d: Register: %v", k, err)
		}
		if err := ns.Attach(id, r, 0, 64); err != nil {
			t.Fatalf("cycle %d: Attach: %v", k, err)
		}
		r.TStoreBatch(0, []mem.Word{1, 2, 3})
		r.TUpdate(4, UpdAdd, mem.Word(k+1))
		if err := ns.Barrier(); err != nil {
			t.Fatalf("cycle %d: Barrier: %v", k, err)
		}
		if runs.Load() == 0 {
			t.Fatalf("cycle %d: thread never ran", k)
		}
		ns.Close()
	}

	// Warm up once so lazily-sized structures reach steady state, then
	// pin the footprint and thread-table size.
	cycle(0)
	footprint := rt.sys.Footprint()
	tableLen := len(rt.threadsSnap())
	for k := 1; k < 50; k++ {
		cycle(k)
	}
	if got := rt.sys.Footprint(); got != footprint {
		t.Errorf("arena footprint grew from %d to %d over 50 churn cycles", footprint, got)
	}
	if got := len(rt.threadsSnap()); got != tableLen {
		t.Errorf("thread table grew from %d to %d entries over 50 churn cycles", tableLen, got)
	}
	// Stats survive the churn monotonically: every cycle folded one update.
	if got := rt.Stats().TUpdates; got != 50 {
		t.Errorf("TUpdates = %d after 50 cycles, want 50", got)
	}
}

// TestNamespaceCloseDrainsRunningInstances pins the use-after-free fix:
// Close must not return a namespace's address ranges to the arena while a
// cancelled-but-still-running instance of an owned thread is executing —
// a late store through the region would otherwise land in a range already
// re-issued to another tenant.
func TestNamespaceCloseDrainsRunningInstances(t *testing.T) {
	rt := nsRuntime(t)
	ns := rt.NewNamespace("s")
	r, err := ns.Region("r", 4)
	if err != nil {
		t.Fatalf("Region: %v", err)
	}
	started, release := make(chan struct{}), newGate(t)
	id, err := ns.Register("slow", func(Trigger) {
		close(started)
		<-release.ch
		r.Poke(1, r.Peek(0)+1) // the region must still be live here
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := ns.Attach(id, r, 0, 1); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	r.TStore(0, 1)
	await(t, "the instance to start", started)

	freeBefore := rt.sys.FreeBytes()
	closed := make(chan struct{})
	go func() { ns.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while an owned instance was still running")
	case <-time.After(50 * time.Millisecond):
	}
	if got := rt.sys.FreeBytes(); got != freeBefore {
		t.Fatalf("Close freed memory (free %d -> %d) before the instance drained", freeBefore, got)
	}
	release.open()
	await(t, "Namespace.Close", closed)
	if got := rt.sys.FreeBytes(); got <= freeBefore {
		t.Fatalf("Close freed nothing after the drain (free %d -> %d)", freeBefore, got)
	}
	if got := r.Peek(1); got != 2 {
		t.Fatalf("instance body saw a dead region: word 1 = %d, want 2", got)
	}
}

// TestNamespaceCloseIsIdempotentWithRelease double-closes a namespace that
// owned memory: the second Close must not double-free.
func TestNamespaceCloseIsIdempotentWithRelease(t *testing.T) {
	rt := nsRuntime(t)
	ns := rt.NewNamespace("s0")
	if _, err := ns.Region("acc", 8); err != nil {
		t.Fatalf("Region: %v", err)
	}
	ns.Close()
	free := rt.sys.FreeBytes()
	if free == 0 {
		t.Fatal("Close released no memory")
	}
	ns.Close()
	if got := rt.sys.FreeBytes(); got != free {
		t.Fatalf("second Close changed FreeBytes from %d to %d", free, got)
	}
}

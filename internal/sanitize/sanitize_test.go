package sanitize

import (
	"strings"
	"testing"

	"dtt/internal/mem"
)

const (
	gMain   = uint64(1) // goroutine ids are arbitrary; the checker only compares
	gWorker = uint64(2)
)

func newTestChecker() *Checker {
	c := NewChecker()
	c.RegisterThread(0, "sum")
	return c
}

// The canonical misuse: main triggers, the instance writes its output, main
// reads the output with no Wait. Then the same sequence with OnWait is clean.
func TestReadBeforeWaitFlaggedAndWaitClears(t *testing.T) {
	for _, withWait := range []bool{false, true} {
		c := newTestChecker()
		c.OnStore(gMain, "in", 0, 0x100)  // main writes trigger word
		c.OnTrigger(gMain, 0)             // fires thread 0
		c.EnterSupport(gWorker, 0)        // instance starts on a worker
		c.OnLoad(gWorker, "in", 0, 0x100) // reads trigger data: ordered by the trigger edge
		c.OnStore(gWorker, "out", 0, 0x200)
		c.ExitSupport(gWorker, 0)
		if withWait {
			c.OnWait(gMain, 0)
		}
		c.OnLoad(gMain, "out", 0, 0x200)

		vs := c.Violations()
		if withWait {
			if len(vs) != 0 {
				t.Fatalf("with Wait: unexpected violations: %v", vs)
			}
			if err := c.Err(); err != nil {
				t.Fatalf("with Wait: Err() = %v", err)
			}
			continue
		}
		if len(vs) != 1 {
			t.Fatalf("without Wait: got %d violations, want 1: %v", len(vs), vs)
		}
		v := vs[0]
		if v.Kind != KindReadBeforeWait || v.Thread != 0 || v.Region != "out" || v.Index != 0 {
			t.Fatalf("violation = %+v", v)
		}
		msg := v.String()
		for _, want := range []string{"read-before-wait", "out[0]", "thread 0", `"sum"`} {
			if !strings.Contains(msg, want) {
				t.Fatalf("diagnostic %q missing %q", msg, want)
			}
		}
	}
}

// Barrier is a global join: it clears reads of every thread's output.
func TestBarrierJoinsAll(t *testing.T) {
	c := newTestChecker()
	c.RegisterThread(1, "other")

	c.OnStore(gMain, "a", 0, 0x100)
	c.OnTrigger(gMain, 0)
	c.EnterSupport(gWorker, 0)
	c.OnStore(gWorker, "out", 0, 0x200)
	c.ExitSupport(gWorker, 0)

	c.OnStore(gMain, "b", 0, 0x300)
	c.OnTrigger(gMain, 1)
	c.EnterSupport(gWorker, 1)
	c.OnStore(gWorker, "out2", 0, 0x400)
	c.ExitSupport(gWorker, 1)

	c.OnBarrier(gMain)
	c.OnLoad(gMain, "out", 0, 0x200)
	c.OnLoad(gMain, "out2", 0, 0x400)
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("post-barrier reads flagged: %v", vs)
	}
}

// A main write racing a support write is a write-race, not a read violation.
func TestWriteRace(t *testing.T) {
	c := newTestChecker()
	c.OnStore(gMain, "in", 0, 0x100)
	c.OnTrigger(gMain, 0)
	c.EnterSupport(gWorker, 0)
	c.OnStore(gWorker, "out", 0, 0x200)
	c.ExitSupport(gWorker, 0)
	c.OnStore(gMain, "out", 0, 0x200) // overwrites the result without Wait
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != KindWriteRace {
		t.Fatalf("violations = %v, want one write-race", vs)
	}
}

// Cancel with a running instance is flagged; with none it is clean.
func TestCancelRace(t *testing.T) {
	c := newTestChecker()
	c.OnCancel(0, 1)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != KindCancelRace {
		t.Fatalf("violations = %v, want one cancel-race", vs)
	}
	c2 := newTestChecker()
	c2.OnCancel(0, 0)
	if vs := c2.Violations(); len(vs) != 0 {
		t.Fatalf("idle cancel flagged: %v", vs)
	}
}

// Two support threads touching the same word without synchronisation.
func TestCrossThread(t *testing.T) {
	c := newTestChecker()
	c.RegisterThread(1, "reader")

	c.OnStore(gMain, "in", 0, 0x100)
	c.OnTrigger(gMain, 0)
	c.EnterSupport(gWorker, 0)
	c.OnStore(gWorker, "shared", 0, 0x200)
	c.ExitSupport(gWorker, 0)

	c.OnStore(gMain, "in2", 0, 0x300)
	c.OnTrigger(gMain, 1)
	c.EnterSupport(gWorker, 1)
	c.OnLoad(gWorker, "shared", 0, 0x200) // thread 1 reads thread 0's write
	c.ExitSupport(gWorker, 1)

	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != KindCrossThread {
		t.Fatalf("violations = %v, want one cross-thread", vs)
	}
	if vs[0].Thread != 0 || vs[0].Accessor != "reader" {
		t.Fatalf("cross-thread diagnostic = %+v", vs[0])
	}
}

// A trigger carries the storer's whole clock: earlier plain stores to other
// words are visible to the instance without extra synchronisation.
func TestTriggerCarriesFullClock(t *testing.T) {
	c := newTestChecker()
	c.OnStore(gMain, "in", 2, 0x110) // plain input store, no trigger
	c.OnStore(gMain, "in", 0, 0x100) // triggering store
	c.OnTrigger(gMain, 0)
	c.EnterSupport(gWorker, 0)
	c.OnLoad(gWorker, "in", 2, 0x110) // reads the earlier store: ordered
	c.OnLoad(gWorker, "in", 0, 0x100)
	c.ExitSupport(gWorker, 0)
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("in-window reads flagged: %v", vs)
	}
}

// A support thread reading a word main wrote AFTER the release point has no
// happens-before edge and is flagged.
func TestSupportReadsPostTriggerMainWrite(t *testing.T) {
	c := newTestChecker()
	c.OnStore(gMain, "in", 0, 0x100)
	c.OnTrigger(gMain, 0)
	c.OnStore(gMain, "late", 0, 0x600) // after the trigger, no new edge
	c.EnterSupport(gWorker, 0)
	c.OnLoad(gWorker, "late", 0, 0x600)
	c.ExitSupport(gWorker, 0)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != KindCrossThread || vs[0].ThreadName != "main" {
		t.Fatalf("violations = %v, want one cross-thread against main", vs)
	}
}

// Inline (nested) instances must not leak happens-before back into the
// enclosing agent: the protocol still requires a Wait.
func TestInlineRunDoesNotJoinBack(t *testing.T) {
	c := newTestChecker()
	c.OnStore(gMain, "in", 0, 0x100)
	c.OnTrigger(gMain, 0)
	// The instance runs nested on the main goroutine (overflow-inline).
	c.EnterSupport(gMain, 0)
	c.OnStore(gMain, "out", 0, 0x200) // attributed to the support agent
	c.ExitSupport(gMain, 0)
	c.OnLoad(gMain, "out", 0, 0x200) // main reads without Wait: flagged
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != KindReadBeforeWait {
		t.Fatalf("violations = %v, want one read-before-wait", vs)
	}
}

// Retention is capped but the total keeps counting.
func TestViolationCap(t *testing.T) {
	c := newTestChecker()
	c.OnTrigger(gMain, 0)
	c.EnterSupport(gWorker, 0)
	for i := 0; i < maxViolations+10; i++ {
		c.OnStore(gWorker, "out", i, mem.Addr(0x1000+8*i))
	}
	c.ExitSupport(gWorker, 0)
	for i := 0; i < maxViolations+10; i++ {
		c.OnLoad(gMain, "out", i, mem.Addr(0x1000+8*i)) // read before Wait
	}
	if got := len(c.Violations()); got != maxViolations {
		t.Fatalf("retained %d violations, want %d", got, maxViolations)
	}
	if c.Total() != int64(maxViolations+10) {
		t.Fatalf("Total() = %d, want %d", c.Total(), maxViolations+10)
	}
	if c.Err() == nil {
		t.Fatal("Err() = nil with violations present")
	}
}

func TestModeAndKindStrings(t *testing.T) {
	if CheckOff.String() != "off" || CheckStrict.String() != "strict" {
		t.Fatal("Mode strings wrong")
	}
	for k, want := range map[Kind]string{
		KindReadBeforeWait: "read-before-wait",
		KindWriteRace:      "write-race",
		KindCancelRace:     "cancel-race",
		KindCrossThread:    "cross-thread",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// Stale writes map entries from a cancelled thread must not flag reads that
// a later Wait ordered; exercised via Wait-after-publish.
func TestWaitAfterMultipleInstances(t *testing.T) {
	c := newTestChecker()
	for i := 0; i < 3; i++ {
		c.OnStore(gMain, "in", 0, 0x100)
		c.OnTrigger(gMain, 0)
		c.EnterSupport(gWorker, 0)
		c.OnStore(gWorker, "out", 0, 0x200)
		c.ExitSupport(gWorker, 0)
	}
	c.OnWait(gMain, 0)
	c.OnLoad(gMain, "out", 0, 0x200)
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("violations after wait: %v", vs)
	}
}

// TestReleaseRangeDropsOnlyTheRange stamps words inside and outside a
// released range — including partial buckets at both range ends and a
// bucket fully inside it — and checks that exactly the in-range stamps are
// forgotten: reads of released words are clean for a new tenant, reads of
// retained words still flag.
func TestReleaseRangeDropsOnlyTheRange(t *testing.T) {
	c := NewChecker()
	c.RegisterThread(0, "w")
	const bucket = mem.Addr(1) << writeBucketShift
	// The released range spans three buckets: the tail of bucket 1, all of
	// bucket 2, and the head of bucket 3.
	lo, hi := bucket+bucket/2, 3*bucket+bucket/2
	inside := []mem.Addr{lo, 2 * bucket, 3*bucket + bucket/2 - 8}
	outside := []mem.Addr{bucket, hi, 4 * bucket}
	c.EnterSupport(gWorker, 0)
	for _, a := range append(append([]mem.Addr{}, inside...), outside...) {
		c.OnStore(gWorker, "r", int(a/8), a)
	}
	c.ExitSupport(gWorker, 0)

	c.ReleaseRange(lo, hi)
	for _, a := range inside {
		c.OnLoad(gMain, "r", int(a/8), a)
	}
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("released words still flagged: %v", vs)
	}
	for _, a := range outside {
		c.OnLoad(gMain, "r", int(a/8), a)
	}
	if got := len(c.Violations()); got != len(outside) {
		t.Fatalf("retained words flagged %d reads, want %d", got, len(outside))
	}
}

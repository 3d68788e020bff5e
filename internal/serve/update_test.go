package serve

import (
	"runtime"
	"testing"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// TestServeUpdateEndToEnd drives the TUPDATE opcode over loopback:
// commutative adds fold server-side into the region's privatized deltas,
// nothing fires until WAIT forces the merge, and the CHANGE_NOTIFY the
// merge produces carries the fully merged value. A second, net-zero round
// must be a silent merge: no further notification. On the monotone folds
// only a record notifies: an UpdMax or UpdMin that does not move the
// watermark merges silently, and one that does fires exactly one notify.
func TestServeUpdateEndToEnd(t *testing.T) {
	base := runtime.NumGoroutine()
	rt, srv, addr := newServerPair(t,
		core.Config{Backend: core.BackendImmediate, Workers: 2})

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	const words = 8
	h, err := cs.Attach("acc", words, 0, words)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := cs.Subscribe(h); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	// Two update rounds before any sync point: the folds accumulate and
	// merge once, so the notification must observe 7+35=42 at word 3.
	if n, err := cs.Update(h, 3, mem.UpdAdd, []mem.Word{7}); err != nil || n != 1 {
		t.Fatalf("Update: applied %d, err %v", n, err)
	}
	if n, err := cs.Update(h, 3, mem.UpdAdd, []mem.Word{35}); err != nil || n != 1 {
		t.Fatalf("Update: applied %d, err %v", n, err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	notes := cs.Notifies()
	if len(notes) != 1 {
		t.Fatalf("after merged update round: %d notifications, want 1: %+v", len(notes), notes)
	}
	if notes[0].Handle != h || notes[0].Index != 3 || notes[0].Value != 42 {
		t.Fatalf("notification = %+v, want handle %d index 3 value 42", notes[0], h)
	}

	// Net-zero round: +5 then −5 on the same word nets to the value already
	// in memory, so the merge is silent and fires nothing.
	if _, err := cs.Update(h, 3, mem.UpdAdd, []mem.Word{5}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	neg5 := ^mem.Word(5) + 1
	if _, err := cs.Update(h, 3, mem.UpdAdd, []mem.Word{neg5}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if notes := cs.Notifies(); len(notes) != 0 {
		t.Fatalf("silent merge produced notifications: %+v", notes)
	}

	// Semantic failures keep the session alive and reply with ERROR.
	if _, err := cs.Update(h, words, mem.UpdAdd, []mem.Word{1}); err == nil {
		t.Fatal("out-of-range Update did not error")
	}
	if _, err := cs.Update(h, 0, mem.UpdateOp(99), []mem.Word{1}); err == nil {
		t.Fatal("invalid-op Update did not error")
	}
	if n, err := cs.Update(h, 0, mem.UpdMax, []mem.Word{9}); err != nil || n != 1 {
		t.Fatalf("Update after ERROR replies: applied %d, err %v", n, err)
	}
	if err := cs.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if notes := cs.Notifies(); len(notes) != 1 || notes[0].Index != 0 || notes[0].Value != 9 {
		t.Fatalf("max-update notifications = %+v, want one with index 0 value 9", notes)
	}

	// Watermark round: word 0 holds 9, so max(9, 4) and min(9, 12) leave it
	// where it is and notify nothing; min(9, 2) is a record and notifies once.
	t.Run("watermark_records", func(t *testing.T) {
		if _, err := cs.Update(h, 0, mem.UpdMax, []mem.Word{4}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if _, err := cs.Update(h, 0, mem.UpdMin, []mem.Word{12}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if err := cs.Wait(h); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if notes := cs.Notifies(); len(notes) != 0 {
			t.Fatalf("non-record max/min updates produced notifications: %+v", notes)
		}
		if _, err := cs.Update(h, 0, mem.UpdMin, []mem.Word{2}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if err := cs.Wait(h); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if notes := cs.Notifies(); len(notes) != 1 || notes[0].Index != 0 || notes[0].Value != 2 {
			t.Fatalf("record min-update notifications = %+v, want one with index 0 value 2", notes)
		}
		if ws, err := cs.Read(h, 0, 1); err != nil || ws[0] != 2 {
			t.Fatalf("Read after the watermark round = %v, err %v; want [2]", ws, err)
		}
	})

	c := srv.Counters()
	if c.Updates != 8 {
		t.Errorf("Counters.Updates = %d, want 8", c.Updates)
	}
	if c.Errors != 2 {
		t.Errorf("Counters.Errors = %d, want 2", c.Errors)
	}
	s := rt.Stats()
	if s.TUpdates != 8 {
		t.Errorf("Stats.TUpdates = %d, want 8", s.TUpdates)
	}
	if s.SilentMerges == 0 {
		t.Error("Stats.SilentMerges = 0, want at least the net-zero merge")
	}
	if s.MergedUpdates < s.SilentMerges {
		t.Errorf("Stats.MergedUpdates %d < SilentMerges %d", s.MergedUpdates, s.SilentMerges)
	}

	cs.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rt.Close()
	expectGoroutines(t, base, "after update session teardown")
}

package serve

import (
	"net"
	"sync/atomic"
	"testing"

	"dtt/internal/core"
	"dtt/internal/mem"
)

// TestWaitElisionStaysHonest: Session.Wait(h) skips the wire only right after
// a Batch(h) whose reply carried the quiet stamp. Any request in between, a
// Wait on another handle, a batch past one claim's changed words and a batch
// answered with ERROR all send the WAIT. Client writes are counted on the
// connection, so an elided Wait is one that wrote nothing.
func TestWaitElisionStaysHonest(t *testing.T) {
	_, _, addr := newServerPair(t, core.Config{Backend: core.BackendImmediate, Workers: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var reads, writes atomic.Int64
	cs, err := newSession(countingConn{conn, &reads, &writes})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cs.Close()
	const words = 64
	h, err := cs.Attach("r", words, 0, words)
	if err == nil {
		err = cs.Subscribe(h)
	}
	if err != nil {
		t.Fatalf("Attach/Subscribe: %v", err)
	}
	other, err := cs.Attach("s", 8, 0, 8)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}

	var next mem.Word
	fresh := func(n int) []mem.Word {
		vs := make([]mem.Word, n)
		for i := range vs {
			next++
			vs[i] = next
		}
		return vs
	}
	batch := func(handle uint32, n int) []mem.Word {
		t.Helper()
		vs := fresh(n)
		if changed, err := cs.Batch(handle, 0, vs); err != nil || changed != n {
			t.Fatalf("Batch(%d) of %d words: changed %d, err %v", handle, n, changed, err)
		}
		return vs
	}
	// wait reports whether Wait(handle) went on the wire.
	wait := func(handle uint32) bool {
		t.Helper()
		w0 := writes.Load()
		if err := cs.Wait(handle); err != nil {
			t.Fatalf("Wait(%d): %v", handle, err)
		}
		return writes.Load() != w0
	}

	// The elided Wait: every word of the batch is already in Notifies.
	cs.Notifies()
	vs := batch(h, core.WaitHelpMax)
	if wait(h) {
		t.Fatal("Wait right after a quiet-stamped Batch on its handle went on the wire")
	}
	if wait(h) {
		t.Fatal("a second Wait with no request in between went on the wire")
	}
	got := cs.Notifies()
	if len(got) != len(vs) {
		t.Fatalf("after the elided Wait Notifies holds %d words, want %d", len(got), len(vs))
	}
	for i, n := range got {
		if n != (Notify{Handle: h, Index: i, Value: vs[i]}) {
			t.Fatalf("notify %d is %+v, want index %d value %d", i, n, i, vs[i])
		}
	}

	for _, c := range []struct {
		name    string
		between func()
	}{
		{"update", func() {
			if _, err := cs.Update(h, 0, core.UpdAdd, []mem.Word{1 << 40}); err != nil {
				t.Fatalf("Update: %v", err)
			}
		}},
		{"read", func() {
			if _, err := cs.Read(h, 0, 1); err != nil {
				t.Fatalf("Read: %v", err)
			}
		}},
		{"batch_on_another_handle", func() { batch(other, 1) }},
	} {
		batch(h, 1)
		c.between()
		if !wait(h) {
			t.Errorf("Wait after a Batch then %s was answered without the wire", c.name)
		}
	}
	batch(h, 1)
	if !wait(other) {
		t.Error("Wait on another handle than the quiet Batch's was answered without the wire")
	}
	cs.Notifies()
	vs = batch(h, core.WaitHelpMax+1)
	if !wait(h) {
		t.Errorf("Wait after a Batch of %d changed words was answered without the wire", core.WaitHelpMax+1)
	}
	if got := cs.Notifies(); len(got) != len(vs) {
		t.Errorf("after the WAIT of a %d-word batch Notifies holds %d words", len(vs), len(got))
	}
	batch(h, 1)
	if _, err := cs.Batch(h, words, fresh(1)); err == nil {
		t.Fatal("a Batch outside the region got no ERROR")
	}
	if !wait(h) {
		t.Error("Wait after a Batch answered with ERROR was answered without the wire")
	}
}

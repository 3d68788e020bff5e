package dtt_test

import (
	"testing"

	"dtt"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring the
// package documentation example.
func TestFacadeQuickstart(t *testing.T) {
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	data := rt.NewRegion("data", 16)
	out := rt.NewRegion("out", 16)
	thread := rt.Register("double", func(tg dtt.Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(thread, data, 0, 16); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 16; i++ {
		data.TStore(i, dtt.Word(i+1))
	}
	rt.Wait(thread)
	for i := 0; i < 16; i++ {
		if got := out.Load(i); got != dtt.Word(2*(i+1)) {
			t.Fatalf("out[%d] = %d, want %d", i, got, 2*(i+1))
		}
	}

	// Silent rewrite: nothing runs.
	before := rt.Stats().Executed
	for i := 0; i < 16; i++ {
		data.TStore(i, dtt.Word(i+1))
	}
	rt.Wait(thread)
	s := rt.Stats()
	if s.Executed != before {
		t.Fatalf("silent stores executed %d extra instances", s.Executed-before)
	}
	if s.Silent != 16 {
		t.Fatalf("silent = %d, want 16", s.Silent)
	}
	if rt.Status(thread) != dtt.StatusIdle {
		t.Fatalf("status = %v, want idle", rt.Status(thread))
	}
}

func TestFacadeDeferredAndPolicies(t *testing.T) {
	rt, err := dtt.New(dtt.Config{
		Backend:       dtt.BackendDeferred,
		QueueCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	data := rt.NewRegion("d", 8)
	runs := 0
	id := rt.Register("count", func(dtt.Trigger) { runs++ })
	if err := rt.Attach(id, data, 0, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		data.TStore(i, 1)
	}
	rt.Barrier()
	if runs != 8 {
		t.Fatalf("runs = %d, want 8 (4 queued + 4 inline)", runs)
	}
	if s := rt.Stats(); s.InlineRuns != 4 {
		t.Fatalf("inline runs = %d, want 4 with capacity 4", s.InlineRuns)
	}
}

func TestFacadeFloatTriggers(t *testing.T) {
	rt, err := dtt.New(dtt.Config{Backend: dtt.BackendDeferred})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	data := rt.NewRegion("f", 2)
	runs := 0
	id := rt.Register("r", func(dtt.Trigger) { runs++ })
	rt.Attach(id, data, 0, 2)
	data.TStoreF(0, 1.5)
	data.TStoreF(0, 1.5) // silent: identical bit pattern
	rt.Wait(id)
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	if data.LoadF(0) != 1.5 {
		t.Fatalf("LoadF = %v", data.LoadF(0))
	}
}

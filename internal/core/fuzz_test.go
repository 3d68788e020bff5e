package core

import (
	"testing"
	"time"

	"dtt/internal/queue"
)

// fuzzState is the final observable state of one fuzzed run, compared
// across replays to enforce seeded-backend determinism.
type fuzzState struct {
	out   [8]uint64
	stats Stats
	qc    queue.Counters
}

// fuzzConfig is the runtime one fuzzed program runs on.
type fuzzConfig struct {
	backend  Backend
	seed     uint64
	workers  int
	capacity int
	closeMid bool
}

// fuzzConfigOf decodes FuzzDispatch's cfg byte: bit 0 picks the seeded
// backend over the deferred one, bit 1 closes the runtime midway, bit 2
// picks the immediate backend, bits 3-4 its 1-3 workers and bit 5 its
// QueueCapacity, 4 or 8192 — without and with room for the stage. The
// single-goroutine backends keep a two-entry queue.
func fuzzConfigOf(cfg byte, seed uint64) fuzzConfig {
	fc := fuzzConfig{backend: BackendDeferred, seed: seed, workers: 1, capacity: 2, closeMid: cfg&2 != 0}
	switch {
	case cfg&4 != 0:
		fc.backend = BackendImmediate
		fc.workers = 1 + int(cfg>>3&3)%3
		fc.capacity = 4
		if cfg&32 != 0 {
			fc.capacity = 8192
		}
	case cfg&1 != 0:
		fc.backend = BackendSeeded
	}
	return fc
}

// runFuzzProgram interprets ops as a program over a two-thread runtime and
// returns its final state. The interpreter is protocol-correct by
// construction — support threads only read their trigger word and write
// their own output words; the main thread reads outputs only after the final
// Barrier — so any sanitizer violation it produces is a runtime bug. The
// sanitizer watches the single-goroutine backends only: attached, it would
// turn the immediate backend's stage off. With closeMid the runtime is
// closed at the midpoint of ops, and the rest of the program runs against
// the sealed queue.
func runFuzzProgram(t *testing.T, fc fuzzConfig, ops []byte) fuzzState {
	t.Helper()
	immediate := fc.backend == BackendImmediate
	check := CheckStrict
	if immediate {
		check = CheckOff
	}
	rt, err := New(Config{
		Backend:       fc.backend,
		SchedSeed:     fc.seed,
		Workers:       fc.workers,
		Checker:       check,
		QueueCapacity: fc.capacity,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	closing := false // a Close that hangs is reported once, not waited on again
	defer func() {
		if !closing {
			rt.Close()
		}
	}()

	const half = 4
	in := rt.NewRegion("in", 2*half)
	out := rt.NewRegion("out", 2*half)
	ths := [2]ThreadID{
		rt.Register("lo", func(tg Trigger) {
			out.Store(tg.Index, 2*tg.Region.Load(tg.Index)+1)
		}),
		rt.Register("hi", func(tg Trigger) {
			out.Store(tg.Index, 5*tg.Region.Load(tg.Index))
		}),
	}
	for k, th := range ths {
		if err := rt.Attach(th, in, k*half, (k+1)*half); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}

	for pc, op := range ops {
		if fc.closeMid && pc == len(ops)/2 {
			rt.Close()
		}
		i := int(op) % (2 * half)
		switch (op >> 3) % 6 {
		case 0, 1: // changing store (value depends on position, so replays agree)
			in.TStore(i, uint64(pc)*13+uint64(op)+1)
		case 2: // silent store: rewrite the current value
			in.TStore(i, in.Peek(i))
		case 3:
			rt.Wait(ths[int(op>>6)%2])
		case 4:
			rt.Barrier()
		case 5:
			// Cancel one thread, then re-arm it: triggers in the gap
			// (there is no gap on these single-goroutine backends) are
			// discarded, pending entries squashed.
			th := ths[int(op>>6)%2]
			k := int(op>>6) % 2
			rt.Cancel(th)
			if err := rt.Attach(th, in, k*half, (k+1)*half); err != nil {
				t.Fatalf("re-Attach after Cancel: %v", err)
			}
		}
	}
	rt.Barrier()

	var st fuzzState
	for i := range st.out {
		st.out[i] = uint64(out.Load(i))
	}
	st.stats = rt.Stats()
	st.qc = queueCounters(rt)

	if err := rt.CheckErr(); err != nil {
		t.Fatalf("sanitizer violation in a protocol-correct program: %v", err)
	}
	s := st.stats
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Fatalf("Fired identity broken: %d != %d + %d + %d", s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	}
	if s.Overflowed != s.InlineRuns+s.Dropped {
		t.Fatalf("Overflowed identity broken: %d != %d + %d", s.Overflowed, s.InlineRuns, s.Dropped)
	}
	if s.FailedRuns != 0 {
		t.Fatalf("FailedRuns = %d in a panic-free program", s.FailedRuns)
	}
	if st.qc.Enqueued != st.qc.Dequeued+st.qc.SquashedOut {
		t.Fatalf("queue counter invariant broken after Barrier: %+v", st.qc)
	}
	if s.MergedUpdates != s.SilentMerges {
		t.Fatalf("MergedUpdates = %d, SilentMerges = %d in a program with no updates", s.MergedUpdates, s.SilentMerges)
	}
	assertQueueConservation(t, rt, "fuzz program")
	if immediate {
		// A Cancel landing in a worker's claimed run drops the run's
		// unstarted rest, counted nowhere; what is left to hold is that
		// Close returns.
		closing = true
		withinFor(t, 10*time.Second, "Close", rt.Close)
		return st
	}
	// Every successfully dequeued entry executed; every squashed-out entry
	// was a cancelled one.
	if s.Enqueued != s.Executed+st.qc.SquashedOut {
		t.Fatalf("Enqueued = %d but Executed = %d and SquashedOut = %d", s.Enqueued, s.Executed, st.qc.SquashedOut)
	}
	return st
}

// FuzzDispatch feeds arbitrary operation streams — triggering stores (silent
// and changing), Wait, Barrier, Cancel/re-Attach, and with bit 1 of cfg a
// Close at the stream's midpoint — through the tstore dispatch path on the
// deferred, the seeded and the immediate backend (fuzzConfigOf), asserting
// the stats identities hold after the final Barrier and, on the
// single-goroutine backends, that the sanitizer stays clean and seeded runs
// replay deterministically; an immediate run must Close within 10 s. Run
// `make fuzz-smoke` for a bounded CI pass or `go test -fuzz FuzzDispatch
// ./internal/core` to explore.
func FuzzDispatch(f *testing.F) {
	f.Add(byte(0), uint64(0), []byte{})
	f.Add(byte(0), uint64(1), []byte{0x00, 0x01, 0x18, 0x20, 0x05})
	f.Add(byte(1), uint64(42), []byte("\x00\x04\x10\x1b\x28\x2f\x07\x21"))
	f.Add(byte(2), uint64(7), []byte{0x2a, 0x2a, 0x00, 0x40, 0x18, 0x20})
	f.Add(byte(3), uint64(0xdeadbeef), []byte("watch the queue overflow"))
	f.Add(byte(0x24), uint64(0), []byte("stage the stores, then \x20 and \x28 and \x6d"))
	f.Add(byte(0x3e), uint64(0), []byte("three workers close midway \x2d\x2e"))
	f.Add(byte(0x0c), uint64(0), []byte("two workers on a queue of four"))
	f.Fuzz(func(t *testing.T, cfg byte, seed uint64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // bound run time, not coverage
		}
		fc := fuzzConfigOf(cfg, seed)
		st := runFuzzProgram(t, fc, ops)
		if fc.backend == BackendSeeded {
			replay := runFuzzProgram(t, fc, ops)
			if replay != st {
				t.Fatalf("seed %d is not deterministic:\nfirst  %+v\nreplay %+v", seed, st, replay)
			}
		}
	})
}

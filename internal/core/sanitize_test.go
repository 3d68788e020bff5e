package core

import (
	"strings"
	"testing"

	"dtt/internal/mem"
	"dtt/internal/sanitize"
)

// misSyncResult captures one run of the deliberately mis-synchronised
// example: a support thread doubling its trigger word into out, and a main
// thread that (optionally) skips the Wait before reading out[0].
type misSyncResult struct {
	violations []sanitize.Violation
	out0       uint64
}

func runMisSync(t *testing.T, seed uint64, insertWait bool) misSyncResult {
	t.Helper()
	rt := newRuntime(t, Config{Backend: BackendSeeded, SchedSeed: seed, Checker: CheckStrict})

	in := rt.NewRegion("in", 4)
	out := rt.NewRegion("out", 4)
	th := rt.Register("sum", func(tg Trigger) {
		out.Store(tg.Index, 2*tg.Region.Load(tg.Index))
	})
	if err := rt.Attach(th, in, 0, 4); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	in.TStore(0, 21)
	if insertWait {
		rt.Wait(th)
	}
	v := uint64(out.Load(0)) // the read under test
	rt.Barrier()
	return misSyncResult{violations: rt.Violations(), out0: v}
}

// TestReadBeforeWaitFlagged is the PR's acceptance scenario: under some
// deterministic schedule the support thread's write lands before the main
// thread's premature read, and CheckStrict flags it with the thread, region
// and word offset in the diagnostic. Inserting the Wait makes the same
// program sanitizer-clean on every seed.
func TestReadBeforeWaitFlagged(t *testing.T) {
	const seeds = 64
	flagged := uint64(seeds)
	for seed := uint64(0); seed < seeds; seed++ {
		res := runMisSync(t, seed, false)
		if len(res.violations) == 0 {
			continue
		}
		flagged = seed
		v := res.violations[0]
		if v.Kind != sanitize.KindReadBeforeWait {
			t.Fatalf("seed %d: violation kind = %v, want read-before-wait", seed, v.Kind)
		}
		if v.Thread != 0 || v.ThreadName != "sum" || v.Region != "out" || v.Index != 0 {
			t.Fatalf("seed %d: violation context = %+v, want thread 0 %q out[0]", seed, v, "sum")
		}
		s := v.String()
		for _, want := range []string{"read-before-wait", "out[0]", "thread 0", `"sum"`, "Wait"} {
			if !strings.Contains(s, want) {
				t.Fatalf("seed %d: diagnostic %q missing %q", seed, s, want)
			}
		}
		break
	}
	if flagged == seeds {
		t.Fatalf("no seed in [0, %d) dispatched the support thread before the premature read", seeds)
	}

	// The printed seed replays the exact interleaving: the same seed must
	// flag the same violation again.
	res := runMisSync(t, flagged, false)
	if len(res.violations) == 0 {
		t.Fatalf("seed %d flagged once but not on replay", flagged)
	}

	// With the Wait inserted the program is clean on every seed, and the
	// read observes the support thread's result.
	for seed := uint64(0); seed < seeds; seed++ {
		res := runMisSync(t, seed, true)
		if len(res.violations) != 0 {
			t.Fatalf("seed %d: violations with Wait inserted: %v", seed, res.violations[0])
		}
		if res.out0 != 42 {
			t.Fatalf("seed %d: out[0] = %d after Wait, want 42", seed, res.out0)
		}
	}
}

// fuzzRun is one execution of the cancel-free equivalence workload: two
// support threads mapping disjoint halves of in to out across several
// trigger rounds with silent stores and queue overflow in the mix.
type fuzzRun struct {
	out   []uint64
	stats Stats
}

func runEquivalenceWorkload(t *testing.T, cfg Config) fuzzRun {
	return runEquivalenceWorkloadStores(t, cfg, false)
}

// runEquivalenceWorkloadStores runs the equivalence workload issuing the
// trigger stream either as scalar TStores or as batched stores (one
// TStoreBatch per half). The value stream is identical either way.
func runEquivalenceWorkloadStores(t *testing.T, cfg Config, batch bool) fuzzRun {
	t.Helper()
	if cfg.Backend != BackendImmediate {
		// The sanitizer checks the protocol, under which a main-thread
		// store concurrent with a running instance of the triggered
		// thread is a (benign, squash-resolved) race; the immediate
		// backend really schedules that way, so it runs unchecked here
		// and contributes its final memory only.
		cfg.Checker = CheckStrict
	}
	cfg.QueueCapacity = 4 // force overflow-inline runs into the schedule
	rt := newRuntime(t, cfg)

	const half = 8
	in := rt.NewRegion("in", 2*half)
	out := rt.NewRegion("out", 2*half)
	lo := rt.Register("lo", func(tg Trigger) {
		out.Store(tg.Index, 3*tg.Region.Load(tg.Index)+1)
	})
	hi := rt.Register("hi", func(tg Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*tg.Region.Load(tg.Index))
	})
	for th, lohi := range map[ThreadID][2]int{lo: {0, half}, hi: {half, 2 * half}} {
		if err := rt.Attach(th, in, lohi[0], lohi[1]); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}

	for round := 0; round < 5; round++ {
		// Same value stream on every backend and seed; round 3 repeats
		// round 2's values, so those stores are silent.
		r := round
		if r == 3 {
			r = 2
		}
		if batch {
			var vals [2 * half]mem.Word
			for i := range vals {
				vals[i] = uint64(r*31 + i*7 + 1)
			}
			in.TStoreBatch(0, vals[:half])
			in.TStoreBatch(half, vals[half:])
		} else {
			for i := 0; i < 2*half; i++ {
				in.TStore(i, uint64(r*31+i*7+1))
			}
		}
		switch round % 3 {
		case 0:
			rt.Wait(lo)
		case 1:
			rt.Wait(hi)
		case 2:
			rt.Barrier()
		}
	}
	rt.Barrier()

	run := fuzzRun{out: make([]uint64, 2*half), stats: rt.Stats()}
	for i := range run.out {
		run.out[i] = uint64(out.Load(i))
	}
	if err := rt.CheckErr(); err != nil {
		t.Fatalf("%v backend (seed %d): sanitizer: %v", cfg.Backend, cfg.SchedSeed, err)
	}
	return run
}

// TestScheduleFuzzEquivalence permutes dispatch order from 50 seeds and
// asserts every schedule is sanitizer-clean and lands on the same final
// memory as the deferred reference backend. A failure prints the seed;
// re-running with Config{Backend: BackendSeeded, SchedSeed: seed} replays
// the failing interleaving exactly.
func TestScheduleFuzzEquivalence(t *testing.T) {
	ref := runEquivalenceWorkload(t, Config{Backend: BackendDeferred})
	imm := runEquivalenceWorkload(t, Config{Backend: BackendImmediate, Workers: 3})
	for i := range ref.out {
		if imm.out[i] != ref.out[i] {
			t.Fatalf("immediate backend: out[%d] = %d, deferred reference has %d", i, imm.out[i], ref.out[i])
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		got := runEquivalenceWorkload(t, Config{Backend: BackendSeeded, SchedSeed: seed})
		for i := range ref.out {
			if got.out[i] != ref.out[i] {
				t.Fatalf("seed %d: out[%d] = %d, deferred reference has %d; replay with Config{Backend: BackendSeeded, SchedSeed: %d}",
					seed, i, got.out[i], ref.out[i], seed)
			}
		}
		// Schedule-independent counters must match the reference too.
		if got.stats.TStores != ref.stats.TStores || got.stats.Silent != ref.stats.Silent || got.stats.Fired != ref.stats.Fired {
			t.Fatalf("seed %d: trigger stats %+v diverge from deferred reference %+v", seed, got.stats, ref.stats)
		}
		if got.stats.FailedRuns != 0 {
			t.Fatalf("seed %d: %d failed runs in a panic-free workload", seed, got.stats.FailedRuns)
		}
	}
}

// TestSeededReplayDeterministic runs the same workload twice with the same
// seed and requires identical schedules: same stats, same memory.
func TestSeededReplayDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef} {
		a := runEquivalenceWorkload(t, Config{Backend: BackendSeeded, SchedSeed: seed})
		b := runEquivalenceWorkload(t, Config{Backend: BackendSeeded, SchedSeed: seed})
		if a.stats != b.stats {
			t.Fatalf("seed %d: stats diverge across replays:\n%+v\n%+v", seed, a.stats, b.stats)
		}
		for i := range a.out {
			if a.out[i] != b.out[i] {
				t.Fatalf("seed %d: out[%d] diverges across replays: %d vs %d", seed, i, a.out[i], b.out[i])
			}
		}
	}
}

// TestSeededSeedsExploreSchedules checks the point of the backend: different
// seeds actually produce different dispatch interleavings (observable as
// different enqueue/squash splits), while all remaining correct.
func TestSeededSeedsExploreSchedules(t *testing.T) {
	type split struct{ enq, squash, inline int64 }
	seen := make(map[split]bool)
	for seed := uint64(0); seed < 20; seed++ {
		run := runEquivalenceWorkload(t, Config{Backend: BackendSeeded, SchedSeed: seed})
		seen[split{run.stats.Enqueued, run.stats.Squashed, run.stats.InlineRuns}] = true
	}
	if len(seen) < 2 {
		t.Fatalf("20 seeds produced %d distinct schedules; the scheduler is not exploring", len(seen))
	}
}

// TestSilentStorePublishesNothing: a store that leaves its word as it was
// publishes nothing, so the sanitizer stamps no write and a later unordered
// reader on another thread is clean. The same program with a changing store
// is a cross-thread violation.
func TestSilentStorePublishesNothing(t *testing.T) {
	for _, mode := range []string{"store", "tstore", "tstore-batch"} {
		t.Run(mode, func(t *testing.T) {
			for _, changing := range []bool{false, true} {
				rt := newRuntime(t, Config{Backend: BackendDeferred, Checker: CheckStrict})
				in := rt.NewRegion("in", 2)
				shared := rt.NewRegion("shared", 1)
				shared.Poke(0, 7)
				v := mem.Word(7)
				if changing {
					v = 8
				}
				writer := rt.Register("writer", func(Trigger) {
					switch mode {
					case "store":
						shared.Store(0, v)
					case "tstore":
						shared.TStore(0, v)
					case "tstore-batch":
						shared.TStoreBatch(0, []mem.Word{v})
					}
				})
				reader := rt.Register("reader", func(Trigger) { _ = shared.Load(0) })
				if err := rt.Attach(writer, in, 0, 1); err != nil {
					t.Fatalf("Attach: %v", err)
				}
				if err := rt.Attach(reader, in, 1, 2); err != nil {
					t.Fatalf("Attach: %v", err)
				}
				in.TStore(0, 1) // the writer runs first, then the reader
				in.TStore(1, 1)
				rt.Barrier()
				vs := rt.Violations()
				rt.Close()
				if !changing && len(vs) != 0 {
					t.Errorf("silent store stamped a write: %v", vs)
				}
				if changing && (len(vs) != 1 || vs[0].Kind != sanitize.KindCrossThread) {
					t.Errorf("changing store: violations = %v, want one cross-thread", vs)
				}
			}
		})
	}
}

// TestCheckerOffRecordsNothing confirms CheckOff keeps the runtime
// diagnostic-free: nil violations and nil CheckErr even for the
// mis-synchronised program.
func TestCheckerOffRecordsNothing(t *testing.T) {
	rt := newRuntime(t, Config{Backend: BackendDeferred})
	in := rt.NewRegion("in", 1)
	out := rt.NewRegion("out", 1)
	th := rt.Register("t", func(tg Trigger) { out.Store(0, 1) })
	if err := rt.Attach(th, in, 0, 1); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	in.TStore(0, 5)
	rt.Barrier()
	out.Load(0)
	if vs := rt.Violations(); vs != nil {
		t.Fatalf("Violations() = %v with checker off", vs)
	}
	if err := rt.CheckErr(); err != nil {
		t.Fatalf("CheckErr() = %v with checker off", err)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dtt/internal/mem"
)

func newBackend(t *testing.T, b Backend) *Runtime {
	t.Helper()
	cfg := Config{Backend: b}
	if b == BackendImmediate {
		cfg.Workers = 2
	}
	if b == BackendSeeded {
		cfg.SchedSeed = 1
	}
	rt := newRuntime(t, cfg)
	return rt
}

// TestTUpdateOps checks each op's merge semantics against a non-trivial
// base value already in memory, folding the operands once through scalar
// TUpdate calls and once through one-word TUpdateBatch calls: every batch
// call after a case's first finds its cell accumulating under the same op,
// so the batch mode drives ApplyBatch's warm path for each op.
func TestTUpdateOps(t *testing.T) {
	cases := []struct {
		op    UpdateOp
		base  mem.Word
		vs    []mem.Word
		want  mem.Word
		fires bool
	}{
		{UpdAdd, 10, []mem.Word{3, 4}, 17, true},
		{UpdAdd, 10, []mem.Word{0}, 10, false},
		{UpdMin, 10, []mem.Word{12, 7}, 7, true},
		{UpdMin, 10, []mem.Word{12, 15}, 10, false},
		{UpdMax, 10, []mem.Word{7, 12}, 12, true},
		{UpdMax, 10, []mem.Word{^mem.Word(0)}, ^mem.Word(0), true}, // unsigned
		{UpdAnd, 0b1111, []mem.Word{0b1101, 0b1110}, 0b1100, true},
		{UpdOr, 0b0001, []mem.Word{0b0100, 0b0010}, 0b0111, true},
		{UpdSet, 10, []mem.Word{5, 6}, 6, true},
		{UpdSet, 10, []mem.Word{10}, 10, false},
	}
	for ci, c := range cases {
		t.Run(fmt.Sprintf("%d-%v", ci, c.op), func(t *testing.T) {
			for _, batch := range []bool{false, true} {
				rt := newDeferred(t, nil)
				data := rt.NewRegion("data", 4)
				data.Poke(1, c.base)
				runs := 0
				id := rt.Register("obs", func(Trigger) { runs++ })
				if err := rt.Attach(id, data, 0, 4); err != nil {
					t.Fatal(err)
				}
				for _, v := range c.vs {
					if batch {
						data.TUpdateBatch(1, c.op, []mem.Word{v})
					} else {
						data.TUpdate(1, c.op, v)
					}
				}
				rt.Wait(id)
				if got := data.Load(1); got != c.want {
					t.Fatalf("batch=%v: word = %d, want %d", batch, got, c.want)
				}
				wantRuns := 0
				if c.fires {
					wantRuns = 1
				}
				if runs != wantRuns {
					t.Fatalf("batch=%v: thread ran %d times, want %d", batch, runs, wantRuns)
				}
			}
		})
	}
}

// TestTUpdatePanics checks the argument contract.
func TestTUpdatePanics(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("index out of range", func() { data.TUpdate(4, UpdAdd, 1) })
	mustPanic("negative index", func() { data.TUpdate(-1, UpdAdd, 1) })
	mustPanic("invalid op", func() { data.TUpdate(0, UpdateOp(99), 1) })
	mustPanic("batch out of range", func() { data.TUpdateBatch(2, UpdAdd, []mem.Word{1, 2, 3}) })
	mustPanic("batch invalid op", func() { data.TUpdateBatch(0, UpdateOp(99), []mem.Word{1}) })
	data.TUpdateBatch(0, UpdAdd, nil) // empty batch is a no-op, not a panic
}

// TestTUpdateEquivalence is the acceptance-criteria test: a deterministic
// op sequence folded through the update plane must leave memory exactly
// where the scalar model (sequential fold in plain Go) puts it, and the
// values attached threads observe at the sync point must match a scalar
// TStore of the final state — on every backend, across the update plane's
// shard counts (a stripe is one producer shard of the privatized replica).
func TestTUpdateEquivalence(t *testing.T) {
	const words = 16
	backends := []Backend{BackendDeferred, BackendSeeded, BackendImmediate}
	for _, b := range backends {
		for _, stripes := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v-shards%d", b, stripes), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				type opRec struct {
					i  int
					op UpdateOp
					v  mem.Word
				}
				seq := make([]opRec, 400)
				for k := range seq {
					seq[k] = opRec{
						i:  rng.Intn(words),
						op: UpdateOp(rng.Intn(int(mem.NumUpdateOps))),
						v:  mem.Word(rng.Intn(64)),
					}
				}
				// Scalar model: sequential fold.
				want := make([]mem.Word, words)
				for _, o := range seq {
					want[o.i] = o.op.Combine(want[o.i], o.v)
				}

				observe := func(rt *Runtime, play func(data *Region)) ([]mem.Word, map[int]mem.Word) {
					data := rt.NewRegion("data", words)
					rt.armUpdates(data).plane = mem.NewDeltaPlane(data.buf, stripes)
					var mu sync.Mutex
					seen := make(map[int]mem.Word)
					id := rt.Register("obs", func(tg Trigger) {
						mu.Lock()
						seen[tg.Index] = tg.Region.Load(tg.Index)
						mu.Unlock()
					})
					if err := rt.Attach(id, data, 0, words); err != nil {
						t.Fatal(err)
					}
					play(data)
					rt.Wait(id)
					return data.Snapshot(), seen
				}

				gotMem, gotSeen := observe(newBackend(t, b), func(data *Region) {
					for _, o := range seq {
						data.TUpdate(o.i, o.op, o.v)
					}
				})
				wantMem, wantSeen := observe(newBackend(t, b), func(data *Region) {
					for i, v := range want {
						data.TStore(i, v)
					}
				})

				for i := range want {
					if gotMem[i] != want[i] {
						t.Errorf("word %d = %d, want %d (scalar model)", i, gotMem[i], want[i])
					}
					if wantMem[i] != want[i] {
						t.Errorf("scalar-path word %d = %d, want %d", i, wantMem[i], want[i])
					}
				}
				// Trigger-observable equivalence: at the sync point both paths
				// must have shown the thread the same final value for the same
				// set of changed words (a word merging to its initial value is
				// silent on both paths).
				if len(gotSeen) != len(wantSeen) {
					t.Errorf("update path observed %d words, scalar path %d", len(gotSeen), len(wantSeen))
				}
				for i, v := range wantSeen {
					if gotSeen[i] != v {
						t.Errorf("word %d observed as %d on the update path, %d on the scalar path", i, gotSeen[i], v)
					}
				}
			})
		}
	}
}

// TestTUpdateStatsIdentity drives updates through a merge and checks the
// documented counter identities on a live snapshot.
func TestTUpdateStatsIdentity(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 8)
	id := rt.Register("obs", func(Trigger) {})
	if err := rt.Attach(id, data, 0, 8); err != nil {
		t.Fatal(err)
	}
	data.TUpdate(0, UpdAdd, 5)                    // changes
	data.TUpdate(1, UpdAdd, 0)                    // nets to initial: silent merge
	data.TUpdateBatch(2, UpdOr, []mem.Word{4, 0}) // word 2 changes, word 3 silent
	rt.Barrier()
	s := rt.Stats()
	if s.TUpdates != 4 {
		t.Errorf("TUpdates = %d, want 4", s.TUpdates)
	}
	if s.Merges != 1 {
		t.Errorf("Merges = %d, want 1", s.Merges)
	}
	if s.MergedUpdates != 4 {
		t.Errorf("MergedUpdates = %d, want 4", s.MergedUpdates)
	}
	if s.SilentMerges != 2 {
		t.Errorf("SilentMerges = %d, want 2", s.SilentMerges)
	}
	if s.Fired != 2 {
		t.Errorf("Fired = %d, want 2 (one per changed word)", s.Fired)
	}
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("Fired identity broken: %+v", s)
	}
	if s.TStores != 0 || s.Silent != 0 {
		t.Errorf("scalar tstore counters moved on the update path: %+v", s)
	}
}

// TestSilentMergeSkipsThread is the headline dedup generalization: ops
// whose net effect is the value already in memory merge silently and fire
// nothing.
func TestSilentMergeSkipsThread(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	runs := 0
	id := rt.Register("obs", func(Trigger) { runs++ })
	if err := rt.Attach(id, data, 0, 4); err != nil {
		t.Fatal(err)
	}
	data.Poke(0, 100)
	data.TUpdate(0, UpdAdd, 5)
	data.TUpdate(0, UpdAdd, ^mem.Word(5)+1) // -5: nets to zero
	rt.Wait(id)
	if runs != 0 {
		t.Fatalf("net-zero merge ran the thread %d times", runs)
	}
	if got := data.Load(0); got != 100 {
		t.Fatalf("word = %d, want 100 untouched", got)
	}
	s := rt.Stats()
	if s.SilentMerges != 1 || s.MergedUpdates != 1 || s.Fired != 0 {
		t.Fatalf("stats = %+v, want one silent merge and no firing", s)
	}
}

// TestLoadMergesPending checks that Region.Load is a best-effort merge
// point: a single-threaded Load observes its own pending updates.
func TestLoadMergesPending(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 4)
	data.TUpdate(2, UpdAdd, 41)
	data.TUpdate(2, UpdAdd, 1)
	if got := data.Load(2); got != 42 {
		t.Fatalf("Load = %d, want 42 (pending deltas merged)", got)
	}
	if got := rt.Stats().Merges; got != 1 {
		t.Fatalf("Merges = %d, want 1", got)
	}
}

// TestTUpdateSeededDeterminism replays the same seeded schedule twice and
// requires identical stats — the merge must be one preemption point, not a
// source of nondeterminism. A Load every third op is the merge point, so
// merges interleave with the update stream instead of waiting for Barrier.
func TestTUpdateSeededDeterminism(t *testing.T) {
	run := func(seed uint64) Stats {
		rt := newRuntime(t, Config{Backend: BackendSeeded, SchedSeed: seed})
		data := rt.NewRegion("data", 8)
		out := rt.NewRegion("out", 8)
		id := rt.Register("sq", func(tg Trigger) {
			out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
		})
		if err := rt.Attach(id, data, 0, 8); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for k := 0; k < 200; k++ {
			data.TUpdate(rng.Intn(8), UpdAdd, mem.Word(rng.Intn(4)))
			if k%3 == 2 {
				data.Load(0)
			}
		}
		rt.Barrier()
		return rt.Stats()
	}
	a, b := run(3), run(3)
	if a != b {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestTUpdateConcurrentProducers hammers one hot region from many
// goroutines while a reader's Loads — each a try-lock merge point — race
// the producers; commutativity must make the final sums exact. Run with
// -race in CI.
func TestTUpdateConcurrentProducers(t *testing.T) {
	const (
		words     = 8
		producers = 4
		opsEach   = 5000
	)
	rt := newBackend(t, BackendImmediate)
	data := rt.NewRegion("data", words)
	id := rt.Register("obs", func(tg Trigger) { _ = tg.Region.Load(tg.Index) })
	if err := rt.Attach(id, data, 0, words); err != nil {
		t.Fatal(err)
	}
	// The reader is running before the first producer starts and merges
	// until the last one is done.
	var producing atomic.Bool
	producing.Store(true)
	reading, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		close(reading)
		for i := 0; producing.Load(); i++ {
			data.Load(i % words)
		}
	}()
	<-reading
	want := make([]mem.Word, words)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			local := make([]mem.Word, words)
			for k := 0; k < opsEach; k++ {
				i := rng.Intn(words)
				v := mem.Word(rng.Intn(16))
				data.TUpdate(i, UpdAdd, v)
				local[i] += v
			}
			mu.Lock()
			for i := range local {
				want[i] += local[i]
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	producing.Store(false)
	<-readerDone
	rt.Barrier()
	for i := range want {
		if got := data.Load(i); got != want[i] {
			t.Errorf("word %d = %d, want %d", i, got, want[i])
		}
	}
	s := rt.Stats()
	if s.TUpdates != producers*opsEach {
		t.Errorf("TUpdates = %d, want %d", s.TUpdates, producers*opsEach)
	}
	if s.Merges == 0 {
		t.Error("no merge ran")
	}
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		t.Errorf("Fired identity broken: %+v", s)
	}
}

// TestTUpdateSanitizerClean runs the full update/merge cycle under
// CheckStrict with a well-behaved program: the merge's visibility stamps
// must keep it violation-free.
func TestTUpdateSanitizerClean(t *testing.T) {
	rt := newDeferred(t, func(cfg *Config) { cfg.Checker = CheckStrict })
	data := rt.NewRegion("data", 8)
	out := rt.NewRegion("out", 8)
	id := rt.Register("sq", func(tg Trigger) {
		out.Store(tg.Index, tg.Region.Load(tg.Index)*2)
	})
	if err := rt.Attach(id, data, 0, 8); err != nil {
		t.Fatal(err)
	}
	data.TUpdateBatch(0, UpdAdd, []mem.Word{1, 2, 3})
	rt.Barrier()
	if got := out.Load(0); got != 2 {
		t.Fatalf("out[0] = %d, want 2", got)
	}
	if err := rt.CheckErr(); err != nil {
		t.Fatalf("sanitizer flagged a clean update program: %v", err)
	}
}

// TestMergeSkipsReleasedPlane pins the merge-vs-release race fix: a
// merger holding a stale updPlanes snapshot (another session's Wait or
// Barrier) must not merge into a plane whose region was released by
// Namespace.Close — the address range may already belong to a new tenant.
func TestMergeSkipsReleasedPlane(t *testing.T) {
	rt := newBackend(t, BackendImmediate)
	ns := rt.NewNamespace("a")
	r, err := ns.Region("hot", 4)
	if err != nil {
		t.Fatal(err)
	}
	r.TUpdate(0, UpdAdd, 5) // arm the plane, leave a delta pending
	u := r.upd.Load()
	if u == nil {
		t.Fatal("TUpdate did not arm an update plane")
	}
	ns.Close()
	if got := u.plane.Pending(); got != 0 {
		t.Fatalf("release left %d pending deltas on the dead plane", got)
	}

	// A second tenant picks up the freed range; its region must not see
	// the first tenant's delta even if a stale merger runs now.
	ns2 := rt.NewNamespace("b")
	r2, err := ns2.Region("hot", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	before := rt.Stats()
	rt.mergePlane(u, true) // the stale merge: must be a no-op
	after := rt.Stats()
	if after.MergedUpdates != before.MergedUpdates {
		t.Fatalf("stale merge applied %d words to a released plane",
			after.MergedUpdates-before.MergedUpdates)
	}
	if got := r2.Load(0); got != 0 {
		t.Fatalf("new tenant's word holds %d — the old tenant's delta leaked through", got)
	}
}

// TestTUpdateChurnAgainstBarrier races session churn (TUpdate, Close)
// against another goroutine's Barrier merge points; under -race this
// covers the stale-snapshot merge path against releaseRegionLocked.
func TestTUpdateChurnAgainstBarrier(t *testing.T) {
	rt := newBackend(t, BackendImmediate)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.Barrier()
			}
		}
	}()
	for k := 0; k < 200; k++ {
		ns := rt.NewNamespace(fmt.Sprintf("s%d", k))
		r, err := ns.Region("hot", 8)
		if err != nil {
			t.Fatalf("cycle %d: %v", k, err)
		}
		for i := 0; i < 8; i++ {
			r.TUpdate(i, UpdAdd, mem.Word(k+i))
		}
		ns.Close()
	}
	close(stop)
	wg.Wait()
}

// TestTUpdatesStatMonotoneUnderChurn races Stats() against namespace
// release: retiring a plane folds its lifetime ops into retiredUpdates
// and prunes it from the live list, and a reader interleaving those two
// steps must never see the plane's ops in neither (a dip) — the snapshot
// is taken under rt.mu.
func TestTUpdatesStatMonotoneUnderChurn(t *testing.T) {
	rt := newBackend(t, BackendImmediate)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var dip atomic.Bool
	go func() {
		defer wg.Done()
		last := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
				got := rt.Stats().TUpdates
				if got < last {
					dip.Store(true)
					return
				}
				last = got
			}
		}
	}()
	for k := 0; k < 300; k++ {
		ns := rt.NewNamespace(fmt.Sprintf("m%d", k))
		r, err := ns.Region("hot", 4)
		if err != nil {
			t.Fatalf("cycle %d: %v", k, err)
		}
		for i := 0; i < 4; i++ {
			r.TUpdate(i, UpdAdd, 1)
		}
		ns.Close()
	}
	close(stop)
	wg.Wait()
	if dip.Load() {
		t.Fatal("Stats.TUpdates dipped during namespace churn")
	}
	if got := rt.Stats().TUpdates; got != 300*4 {
		t.Fatalf("TUpdates = %d after churn, want %d", got, 300*4)
	}
}

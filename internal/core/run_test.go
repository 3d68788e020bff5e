package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/trace"
)

// Tests of the run as the unit of work on both sides of the thread queue: a
// lookup hoisted over a run must answer what attachmentAt answers, one deferred
// recover must serve a whole run of bodies, and a scalar store that counts
// itself under the dispatch lock must not make Stats lose or tear a store.

// coverRun is what one first-covering scenario leaves behind.
type coverRun struct {
	fired, enqueued, squashed int64
	triggers                  []string // "region[index]" per instance, in run order
}

// runCovering attaches one thread over ranges, in that order, touches words in
// that order through the given write plane, re-stores every touched word with
// a scalar TStore before the Wait, and reports the counters and the resolved
// triggers.
func runCovering(t *testing.T, plane string, ranges [][2]int, words []int) coverRun {
	t.Helper()
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 150)
	var got coverRun
	id := rt.Register("twice", func(tg Trigger) {
		got.triggers = append(got.triggers, fmt.Sprintf("%s[%d]@%#x", tg.Region.Name(), tg.Index, tg.Addr))
	})
	for _, r := range ranges {
		if err := rt.Attach(id, data, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	switch plane {
	case "scalar":
		for _, w := range words {
			data.TStore(w, 7)
		}
	case "batch": // one span from the first word to the last; only the named words change
		lo, hi := words[0], words[len(words)-1]
		vs := make([]mem.Word, hi-lo+1)
		for _, w := range words {
			vs[w-lo] = 7
		}
		data.TStoreBatch(lo, vs)
	case "merge": // one merge whose words are collected in touch order
		for _, w := range words {
			data.TUpdateBatch(w, UpdAdd, []mem.Word{7})
		}
		data.Load(0)
	}
	// Every touched word is pending on its FIRST covering attachment, which is
	// where the scalar path looks: a second changing store squashes.
	for _, w := range words {
		data.TStore(w, 8)
	}
	st := rt.Stats()
	got.fired, got.enqueued, got.squashed = st.Fired, st.Enqueued, st.Squashed
	rt.Wait(id)
	assertIdentities(t, rt, plane)
	return got
}

// TestFirstCoveringAttachmentThroughHoistedLookups: where a thread's ranges
// overlap, a trigger keys on the first covering attachment in Attach order,
// and the lookups hoisted over a batch's and a merge's pairs must keep to it.
// Each layout visits a word only a later attachment covers and then a word of
// the overlap, which a hint that cached the last attachment would key on the
// wrong bitmap — and the scalar re-store would then enqueue, not squash.
func TestFirstCoveringAttachmentThroughHoistedLookups(t *testing.T) {
	for _, c := range []struct {
		name   string
		ranges [][2]int
		words  []int
		planes []string
	}{
		// Word 120 is only in the second attachment, word 60 in both.
		{"second-then-overlap", [][2]int{{0, 100}, {50, 150}}, []int{120, 60}, []string{"merge"}},
		{"overlap-then-second", [][2]int{{0, 100}, {50, 150}}, []int{60, 120}, []string{"batch", "merge"}},
		// Attached in the other order, ascending words do it: 20 is only in
		// the second attachment, 60 in both.
		{"reversed-attach", [][2]int{{50, 150}, {0, 100}}, []int{20, 60}, []string{"batch", "merge"}},
	} {
		want := runCovering(t, "scalar", c.ranges, c.words)
		if want.enqueued != int64(len(c.words)) {
			t.Fatalf("%s: scalar reference enqueued %d instances for %d words", c.name, want.enqueued, len(c.words))
		}
		for _, plane := range c.planes {
			got := runCovering(t, plane, c.ranges, c.words)
			if got.fired != want.fired || got.enqueued != want.enqueued || got.squashed != want.squashed {
				t.Errorf("%s/%s: Fired %d Enqueued %d Squashed %d, the scalar loop gives %d %d %d",
					c.name, plane, got.fired, got.enqueued, got.squashed, want.fired, want.enqueued, want.squashed)
			}
			if fmt.Sprint(got.triggers) != fmt.Sprint(want.triggers) {
				t.Errorf("%s/%s: resolved triggers %v, the scalar loop gives %v", c.name, plane, got.triggers, want.triggers)
			}
		}
	}
}

// runBackends are the two execution models, the single-goroutine one also
// under a recorder and under a schedule, with the sanitizer on.
func runBackends(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"deferred", Config{}},
		{"recorded", Config{Recorder: trace.NewRecorder(nil)}},
		{"seeded", Config{Backend: BackendSeeded, SchedSeed: 7}},
		{"immediate", Config{Backend: BackendImmediate, Workers: 1}},
	} {
		cfg := row.cfg
		cfg.Checker = CheckStrict
		t.Run(row.name, func(t *testing.T) { f(t, cfg) })
	}
}

// TestRunRecoversPerBody: one deferred recover serves a whole run, so a body
// that panics in the middle of it must cost exactly its own entry — the bodies
// behind it run, the outcome lands on that entry, the thread is idle after
// the run wherever the panic fell — and must leave the sanitizer's instance
// nesting balanced, on every backend (the immediate worker claims the batch
// as one run; the others run it entry by entry through the same helper).
func TestRunRecoversPerBody(t *testing.T) {
	runBackends(t, func(t *testing.T, cfg Config) {
		const span = 5
		rt := newRuntime(t, cfg)
		in, out := rt.NewRegion("in", span), rt.NewRegion("out", span)
		bad := -1 // written by the main thread only while the thread is quiet
		th := rt.Register("fragile", func(tg Trigger) {
			if tg.Index == bad {
				panic("support thread fault")
			}
			out.Store(tg.Index, tg.Region.Load(tg.Index))
		})
		if err := rt.Attach(th, in, 0, span); err != nil {
			t.Fatal(err)
		}
		vs := make([]mem.Word, span)
		var failed, executed int64
		// In queue order the faults fall mid-run, on the run's last entry,
		// nowhere, and on its first entry.
		for round, c := range []struct{ bad int }{{2}, {span - 1}, {-1}, {0}} {
			bad = c.bad
			for i := range vs {
				vs[i] = mem.Word(round + 1)
			}
			in.TStoreBatch(0, vs)
			within(t, "Wait", func() { rt.Wait(th) })
			if c.bad >= 0 {
				failed++
			}
			executed += span
			st := rt.Stats()
			if st.FailedRuns != failed || st.Executed != executed-failed {
				t.Fatalf("round %d (panic at entry %d of %d): FailedRuns %d Executed %d, want %d and %d",
					round, c.bad, span, st.FailedRuns, st.Executed, failed, executed-failed)
			}
			if got := rt.Status(th); got != queue.StatusIdle {
				t.Fatalf("round %d (panic at entry %d of %d): Status = %v, want idle", round, c.bad, span, got)
			}
			for i := 0; i < span; i++ {
				if want := mem.Word(round + 1); i != c.bad && out.Load(i) != want {
					t.Fatalf("round %d: out[%d] = %d, want %d: a body other than the panicking one (%d) did not run", round, i, out.Load(i), want, c.bad)
				}
			}
		}
		if err := rt.CheckErr(); err != nil {
			t.Fatalf("sanitizer after recovered panics: %v", err)
		}
		assertIdentities(t, rt, "recover per run")
		if cfg.Recorder != nil {
			// A failed instance still closes its trace task: every started
			// body, recovered or not, is one support task of a valid trace.
			tr, err := cfg.Recorder.Finish()
			if err != nil {
				t.Fatalf("trace after recovered panics: %v", err)
			}
			if got := int64(tr.SupportTasks()); got != executed {
				t.Fatalf("trace has %d support tasks, %d bodies started", got, executed)
			}
		}
	})
}

// TestRunPanicThenCancel: the run resumes behind a panicking body through a
// second runBodies call, and a Cancel landing in the resumed part must still
// stop the rest — entry 0 fails, entry 1 runs across the Cancel, entries 2..
// never start.
func TestRunPanicThenCancel(t *testing.T) {
	const span = 6
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1})
	in := rt.NewRegion("in", span)
	inBody, release := make(chan struct{}), newGate(t)
	var started atomic.Int64
	th := rt.Register("fragile", func(tg Trigger) {
		started.Add(1)
		switch tg.Index {
		case 0:
			panic("support thread fault")
		case 1:
			close(inBody)
			<-release.ch
		}
	})
	if err := rt.Attach(th, in, 0, span); err != nil {
		t.Fatal(err)
	}
	vs := make([]mem.Word, span)
	for i := range vs {
		vs[i] = 1
	}
	in.TStoreBatch(0, vs)
	await(t, "entry 1 to start", inBody)
	if got := pendingOf(rt, th); got != 0 {
		t.Fatalf("%d of the batch's %d entries are still on the ring while entry 2 runs, want the whole batch claimed", got, span)
	}
	rt.Cancel(th)
	release.open()
	within(t, "drain", func() { rt.drainThread(th) })
	if got := tokenOf(rt, th); got != 0 {
		t.Fatalf("the run token still counts %d instances after the run settled", got)
	}
	st := rt.Stats()
	if got := started.Load(); got != 2 || st.FailedRuns != 1 || st.Executed != 1 {
		t.Fatalf("%d bodies started, FailedRuns %d, Executed %d; want 2, 1 and 1 (the rest is cancelled work)", got, st.FailedRuns, st.Executed)
	}
	assertIdentities(t, rt, "panic then cancel")
}

// TestScalarStoreCountsExactUnderConcurrency: a changing scalar store that
// fires counts itself under the dispatch lock, one that matches nothing in a lock-free
// counter, and Stats sums the two kinds — so under concurrent producers no
// store may be lost or counted per matched thread, and no snapshot may tear.
func TestScalarStoreCountsExactUnderConcurrency(t *testing.T) {
	const producers, perProducer, words = 4, 4000, 48
	rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 2})
	data := rt.NewRegion("data", words)
	// Words [0,16) fire one thread; [16,32) fire two threads and, over
	// [24,32), one of them through two overlapping attachments; [32,48)
	// fire nothing.
	var ids [2]ThreadID
	for k := range ids {
		ids[k] = rt.Register(fmt.Sprintf("t%d", k), func(Trigger) {})
	}
	for _, a := range []struct {
		id     ThreadID
		lo, hi int
	}{{ids[0], 0, 32}, {ids[1], 16, 28}, {ids[1], 24, 32}} {
		if err := rt.Attach(a.id, data, a.lo, a.hi); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last Stats
			for {
				st := rt.Stats()
				if st.Silent > st.TStores || st.TStores < last.TStores {
					t.Errorf("snapshot Silent %d TStores %d after TStores %d", st.Silent, st.TStores, last.TStores)
					return
				}
				if st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
					t.Errorf("torn snapshot: Fired %d != Enqueued %d + Squashed %d + Overflowed %d", st.Fired, st.Enqueued, st.Squashed, st.Overflowed)
					return
				}
				last = st
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	var changing atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			n := int64(0)
			for i := 0; i < perProducer; i++ {
				// Every other store repeats the value another producer may
				// have written: a mix of silent and changing outcomes.
				if data.TStore((i*7+p)%words, mem.Word(i/2%3)) {
					n++
				}
			}
			changing.Add(n)
		}(p)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	within(t, "Barrier", rt.Barrier)
	st := rt.Stats()
	if want := int64(producers * perProducer); st.TStores != want {
		t.Fatalf("TStores %d, %d stores were issued", st.TStores, want)
	}
	if got := st.TStores - st.Silent; got != changing.Load() {
		t.Fatalf("TStores %d - Silent %d = %d, but %d stores reported a change", st.TStores, st.Silent, got, changing.Load())
	}
	if st.Fired == 0 || st.Squashed == 0 {
		t.Fatalf("Fired %d Squashed %d: the store mix never reached the attached words", st.Fired, st.Squashed)
	}
	assertIdentities(t, rt, "concurrent scalar stores")
}

// TestDeferredDrainIsFIFO pins the unscheduled pick: the deferred backend runs instances in enqueue order whichever threads they
// belong to, and an instance a body enqueues mid-drain (a cascade) runs after
// everything that was already queued.
func TestDeferredDrainIsFIFO(t *testing.T) {
	rt := newDeferred(t, nil)
	const words = 3
	in, next := rt.NewRegion("in", 3*words), rt.NewRegion("next", words)
	var got []string
	for k, name := range []string{"a", "b", "c"} {
		th := rt.Register(name, func(tg Trigger) {
			got = append(got, fmt.Sprintf("%s%d", name, tg.Index))
			if name == "a" {
				next.TStore(tg.Index-k*words, 1) // cascades while b's and c's entries wait
			}
		})
		if err := rt.Attach(th, in, k*words, (k+1)*words); err != nil {
			t.Fatal(err)
		}
	}
	tail := rt.Register("tail", func(tg Trigger) { got = append(got, fmt.Sprintf("tail%d", tg.Index)) })
	if err := rt.Attach(tail, next, 0, words); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < words; i++ { // interleaved: a0 b3 c6 a1 b4 c7 ...
		for k, name := range []string{"a", "b", "c"} {
			in.TStore(k*words+i, 1)
			want = append(want, fmt.Sprintf("%s%d", name, k*words+i))
		}
	}
	if len(got) != 0 {
		t.Fatalf("the deferred backend ran %v before any Wait", got)
	}
	rt.Barrier()
	want = append(want, "tail0", "tail1", "tail2")
	if !slices.Equal(got, want) {
		t.Fatalf("drain order:\n got %v\nwant %v", got, want)
	}
}

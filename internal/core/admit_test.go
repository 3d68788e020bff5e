package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dtt/internal/mem"
	"dtt/internal/queue"
	"dtt/internal/trace"
)

// Tests of run admission: dispatchFired cuts a write's words × candidates
// pair order into runs of one thread's words and admits each run in one
// EnqueueRun. Whatever the cut, the pairs must enter the queue in the order,
// and with the verdicts, of the pair-by-pair walk it replaced.

// pairKey is one (thread, word index) trigger of the reference walk.
type pairKey struct {
	t ThreadID
	i int
}

// pairWalk is the reference admission: every changed word of a write, in
// write order, against every candidate in registry index order, one offer
// per covering pair — squashed when (thread, word) is pending, overflowed
// when the ring is full, enqueued otherwise.
type pairWalk struct {
	cands   []queue.Attachment
	base    mem.Addr
	cap     int
	pending map[pairKey]bool
	queued  []pairKey // the ring, oldest first
	ran     []pairKey // the deferred backend's run order so far
	st      admitStats
}

// admitStats are the Stats counters admission and the deferred backend's
// runs move.
type admitStats struct {
	Fired, Enqueued, Squashed, Overflowed, InlineRuns, Dropped, Executed int64
}

func statsOf(s Stats) admitStats {
	return admitStats{s.Fired, s.Enqueued, s.Squashed, s.Overflowed, s.InlineRuns, s.Dropped, s.Executed}
}

// write walks one write's changed words; its overflowed pairs run inline at
// the write's end, in offer order.
func (w *pairWalk) write(words []int) {
	var inline []pairKey
	for _, i := range words {
		addr := w.base + mem.Addr(i)*mem.WordBytes
		for _, c := range w.cands {
			if addr < c.Lo || addr >= c.Hi {
				continue
			}
			k := pairKey{c.Thread, i}
			w.st.Fired++
			switch {
			case w.pending[k]:
				w.st.Squashed++
			case len(w.queued) >= w.cap:
				w.st.Overflowed++
				inline = append(inline, k)
			default:
				w.pending[k] = true
				w.queued = append(w.queued, k)
				w.st.Enqueued++
			}
		}
	}
	w.ran = append(w.ran, inline...)
	w.st.InlineRuns += int64(len(inline))
}

// drain is a Barrier on the deferred backend: the ring runs oldest first.
func (w *pairWalk) drain() {
	w.ran = append(w.ran, w.queued...)
	w.st.Executed += int64(len(w.queued))
	w.queued = w.queued[:0]
	clear(w.pending)
}

// admitWrite is one write of an admission case: a scalar TStore per word, one
// TStoreBatch over the words (ascending and contiguous), or a TUpdate per
// word in that order and the merge a Load forces.
type admitWrite struct {
	plane string
	words []int
}

func span(lo, hi int) []int {
	var ws []int
	for i := lo; i < hi; i++ {
		ws = append(ws, i)
	}
	return ws
}

// TestRunAdmissionMatchesPairWalk: on the deferred backend — plain, and with
// the sanitizer and the recorder, whose admission hook reconstructs each
// pair's verdict from the ring — every write's admissions, the run order at
// the Barrier and the counters equal the reference pair walk's.
func TestRunAdmissionMatchesPairWalk(t *testing.T) {
	type att struct {
		th     int // 0 is thread a, 1 thread b
		lo, hi int
	}
	for _, c := range []struct {
		name   string
		cap    int
		atts   []att
		writes []admitWrite
	}{
		{"batch/two-threads-overlapping", 0, []att{{0, 0, 40}, {1, 20, 64}},
			[]admitWrite{{"batch", span(0, 64)}}},
		{"batch/two-threads-adjacent", 0, []att{{0, 0, 32}, {1, 32, 64}},
			[]admitWrite{{"batch", span(0, 64)}}},
		{"batch/two-threads-interleaved", 0, []att{{0, 0, 16}, {1, 16, 32}, {0, 32, 48}, {1, 48, 64}},
			[]admitWrite{{"batch", span(0, 64)}}},
		// Words 20..39 are covered twice by one thread: the second pair
		// squashes on the first covering attachment's bit, in either attach
		// order, and a re-store of the span squashes throughout.
		{"batch/one-thread-overlapping-attachments", 0, []att{{0, 0, 40}, {0, 20, 64}},
			[]admitWrite{{"batch", span(0, 64)}, {"batch", span(10, 50)}, {"scalar", []int{25, 45, 5}}}},
		{"batch/one-thread-overlapping-attachments-reversed", 0, []att{{0, 20, 64}, {0, 0, 40}},
			[]admitWrite{{"batch", span(0, 64)}, {"batch", span(10, 50)}, {"scalar", []int{25, 45, 5}}}},
		// Merge words come in dirty order: 40 and 45 lie above b's range, 3
		// below it, 17 inside it. A window one-sided on either side would
		// admit 17 for a alone.
		{"merge/dirty-order", 0, []att{{0, 0, 64}, {1, 16, 32}},
			[]admitWrite{{"merge", []int{40, 3, 17, 45, 41}}}},
		{"merge/dirty-order-one-thread", 0, []att{{0, 0, 64}},
			[]admitWrite{{"merge", []int{40, 3, 17}}, {"merge", []int{17, 41, 3}}}},
		// Overflow mid-run: a pending word squashes among the overflows, and
		// the rest of the run resumes behind each overflowed offer.
		{"batch/overflow-mid-run", 8, []att{{0, 0, 32}},
			[]admitWrite{{"scalar", []int{10}}, {"batch", span(0, 20)}}},
		{"batch/overflow-two-threads", 6, []att{{0, 0, 40}, {1, 20, 64}},
			[]admitWrite{{"batch", span(0, 64)}}},
		{"merge/overflow-mid-run", 4, []att{{0, 0, 64}, {1, 16, 32}},
			[]admitWrite{{"merge", []int{40, 3, 17, 45, 41, 50}}}},
	} {
		for _, obs := range []string{"plain", "observed"} {
			t.Run(c.name+"/"+obs, func(t *testing.T) {
				cfg := Config{Backend: BackendDeferred, QueueCapacity: c.cap}
				if obs == "observed" {
					cfg.Checker, cfg.Recorder = CheckStrict, trace.NewRecorder(nil)
				}
				rt := newRuntime(t, cfg)
				data := rt.NewRegion("data", 64)
				var ran []pairKey
				body := func(tg Trigger) { ran = append(ran, pairKey{tg.Thread, tg.Index}) }
				ids := []ThreadID{rt.Register("a", body), rt.Register("b", body)}
				for _, a := range c.atts {
					if err := rt.Attach(ids[a.th], data, a.lo, a.hi); err != nil {
						t.Fatal(err)
					}
				}
				w := &pairWalk{
					cands:   rt.reg.Snapshot().Overlapping(0, ^mem.Addr(0), nil),
					base:    data.buf.Base(),
					cap:     rt.cfg.QueueCapacity,
					pending: map[pairKey]bool{},
				}
				v := mem.Word(0)
				for n, wr := range c.writes {
					v++
					switch wr.plane {
					case "scalar":
						for _, i := range wr.words {
							data.TStore(i, v)
							w.write([]int{i})
						}
					case "batch":
						vs := make([]mem.Word, len(wr.words))
						for k := range vs {
							vs[k] = v
						}
						data.TStoreBatch(wr.words[0], vs)
						w.write(wr.words)
					case "merge":
						for _, i := range wr.words {
							data.TUpdate(i, UpdSet, v)
						}
						data.Load(0)
						w.write(wr.words)
					}
					if got := statsOf(rt.Stats()); got != w.st {
						t.Fatalf("write %d (%s %v): counters %+v, the pair walk gives %+v", n, wr.plane, wr.words, got, w.st)
					}
					if !slices.Equal(ran, w.ran) {
						t.Fatalf("write %d: inline runs %v, the pair walk gives %v", n, ran, w.ran)
					}
					if rec := rt.obs.rec; rec != nil && len(rec.release) != len(w.queued) {
						t.Fatalf("write %d: the recorder holds %d release points for %d queued entries", n, len(rec.release), len(w.queued))
					}
				}
				rt.Barrier()
				w.drain()
				if !slices.Equal(ran, w.ran) {
					t.Fatalf("run order %v, the pair walk gives %v", ran, w.ran)
				}
				if got := statsOf(rt.Stats()); got != w.st {
					t.Fatalf("counters %+v, the pair walk gives %+v", got, w.st)
				}
				assertIdentities(t, rt, c.name)
				if err := rt.CheckErr(); err != nil {
					t.Fatalf("sanitizer: %v", err)
				}
			})
		}
	}
}

// TestRunAdmissionSkipsCancelledRange: a run whose candidate a Cancel
// detached between the write's registry snapshot and the dispatch lock has
// no attachment under the lock. It never happened: nothing is counted or
// queued for it, and the other thread's run in the same write is admitted
// whole.
func TestRunAdmissionSkipsCancelledRange(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 64)
	var ran []int
	a := rt.Register("a", func(tg Trigger) { ran = append(ran, tg.Index) })
	b := rt.Register("b", func(tg Trigger) { ran = append(ran, tg.Index) })
	if err := rt.Attach(a, data, 0, 32); err != nil {
		t.Fatal(err)
	}
	if err := rt.Attach(b, data, 32, 64); err != nil {
		t.Fatal(err)
	}
	snap := rt.reg.Snapshot()
	rt.Cancel(a)
	cands := snap.Overlapping(data.buf.Base(), data.buf.Addr(64), nil)
	words := make([]mem.Addr, 64)
	for i := range words {
		words[i] = data.buf.Addr(i)
	}
	if inline := rt.dispatchFired(cands, words, nil, 0, 0, nil); len(inline) != 0 {
		t.Fatalf("dispatch returned %d inline entries, want none", len(inline))
	}
	st := rt.Stats()
	if st.Fired != 32 || st.Enqueued != 32 || st.Squashed != 0 || st.Overflowed != 0 {
		t.Fatalf("Fired %d Enqueued %d Squashed %d Overflowed %d, want b's 32 words only", st.Fired, st.Enqueued, st.Squashed, st.Overflowed)
	}
	rt.Barrier()
	if !slices.Equal(ran, span(32, 64)) {
		t.Fatalf("ran %v, want b's words 32..63", ran)
	}
	assertIdentities(t, rt, "cancelled range")
}

// TestRunAdmissionOverflowImmediate: a run that overflows mid-run on the
// immediate backend. While a worker holds the thread's run token, each
// overflowed offer is a mark and the write returns without running it; the
// holder sweeps the marks before it lets the token go. With the token free
// the overflowed offers run inline on the writer before the write returns.
// Either way Overflowed = InlineRuns + Dropped once quiet.
func TestRunAdmissionOverflowImmediate(t *testing.T) {
	for _, held := range []bool{true, false} {
		t.Run(fmt.Sprintf("held=%v", held), func(t *testing.T) {
			rt := newRuntime(t, Config{Backend: BackendImmediate, Workers: 1, QueueCapacity: 4})
			data := rt.NewRegion("data", 32)
			entered, release := make(chan struct{}, 1), newGate(t)
			var mu sync.Mutex
			var ran []int
			a := rt.Register("a", func(tg Trigger) {
				if tg.Index == 0 {
					entered <- struct{}{}
					<-release.ch
					return
				}
				mu.Lock()
				ran = append(ran, tg.Index)
				mu.Unlock()
			})
			if err := rt.Attach(a, data, 0, 32); err != nil {
				t.Fatal(err)
			}
			plugged := a
			if !held { // the worker sits in another thread's body
				plugged = rt.Register("plug", func(Trigger) { entered <- struct{}{}; <-release.ch })
				p := rt.NewRegion("plug", 1)
				if err := rt.Attach(plugged, p, 0, 1); err != nil {
					t.Fatal(err)
				}
				p.TStore(0, 1)
			} else {
				data.TStore(0, 1)
			}
			await(t, "the plug body", entered)
			// Words 1..4 fill the ring; 5..20 overflow, one EnqueueRun call
			// each after the first.
			vs := make([]mem.Word, 20)
			for i := range vs {
				vs[i] = 7
			}
			within(t, "the overflowing batch", func() { data.TStoreBatch(1, vs) })
			st := rt.Stats()
			if st.Enqueued != 5 || st.Overflowed != 16 {
				t.Fatalf("Enqueued %d Overflowed %d, want 5 (the plug and words 1..4) and 16", st.Enqueued, st.Overflowed)
			}
			wantInline := int64(16)
			if held {
				wantInline = 0 // marks, for the token's holder
			}
			mu.Lock()
			if st.InlineRuns != wantInline || int64(len(ran)) != wantInline {
				t.Fatalf("before the release: InlineRuns %d, %d bodies ran, want %d", st.InlineRuns, len(ran), wantInline)
			}
			if !held && !slices.Equal(ran, span(5, 21)) {
				t.Fatalf("inline runs %v, want words 5..20 in offer order", ran)
			}
			mu.Unlock()
			release.open()
			within(t, "Barrier", rt.Barrier)
			mu.Lock()
			defer mu.Unlock()
			got := slices.Clone(ran)
			slices.Sort(got)
			if !slices.Equal(got, span(1, 21)) {
				t.Fatalf("ran %v, want words 1..20 once each", ran)
			}
			if st := rt.Stats(); st.InlineRuns != 16 || st.Dropped != 0 {
				t.Fatalf("InlineRuns %d Dropped %d, want 16 and 0", st.InlineRuns, st.Dropped)
			}
			assertIdentities(t, rt, "overflow mid-run")
		})
	}
}

// TestRunAdmissionKeysOnFirstCoverUnderLock: the attachments under the
// dispatch lock can differ from the write's registry snapshot. Here the
// snapshot holds one range of thread a, [0, 64); by the lock a Cancel and two
// Attaches have made [30, 40) a's first attachment and [0, 64) its second. A
// run the stale candidate's window allows, words 0..63, must still split
// where a's first covering attachment changes: words 30..39 are pending on
// [30, 40)'s bits, where the next writes look, so their re-stores squash.
func TestRunAdmissionKeysOnFirstCoverUnderLock(t *testing.T) {
	rt := newDeferred(t, nil)
	data := rt.NewRegion("data", 64)
	a := rt.Register("a", func(Trigger) {})
	if err := rt.Attach(a, data, 0, 64); err != nil {
		t.Fatal(err)
	}
	snap := rt.reg.Snapshot()
	rt.Cancel(a)
	for _, r := range [][2]int{{30, 40}, {0, 64}} {
		if err := rt.Attach(a, data, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	cands := snap.Overlapping(data.buf.Base(), data.buf.Addr(64), nil)
	words := make([]mem.Addr, 64)
	for i := range words {
		words[i] = data.buf.Addr(i)
	}
	rt.dispatchFired(cands, words, nil, 0, 0, nil)
	for _, i := range []int{5, 35, 50} {
		data.TStore(i, 9)
	}
	// Word 35 is covered by both attachments now: two pairs, both squash.
	if st := rt.Stats(); st.Enqueued != 64 || st.Squashed != 4 {
		t.Fatalf("Enqueued %d Squashed %d, want 64 and 4: a run kept one pending set across a change of first covering attachment", st.Enqueued, st.Squashed)
	}
	rt.Barrier()
	assertIdentities(t, rt, "re-keyed run")
}

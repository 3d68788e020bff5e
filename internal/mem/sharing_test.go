package mem

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSharingClassesStoreAlike runs one seeded sequence of silent and
// changing stores against a shared and a private buffer at the same address:
// the class picks the instruction, never the outcome. Store's return values
// and final contents agree unprobed, and with a probe attached the two
// (addr, old, val, silent) event streams are identical — which is what keeps
// every simulated experiment byte-identical across the class split.
func TestSharingClassesStoreAlike(t *testing.T) {
	const words, steps = 16, 4000
	type outcome struct {
		changed []bool
		final   []Word
		events  []seamEvent
	}
	run := func(shared, probed bool) outcome {
		s := NewSystem()
		var out outcome
		if probed {
			s.AttachProbe(seamProbe{log: &out.events})
		}
		alloc := s.Alloc
		if shared {
			alloc = s.AllocShared
		}
		b := alloc("buf", words)
		rng := rand.New(rand.NewSource(24))
		for n := 0; n < steps; n++ {
			// Three values over sixteen words: about a third of the
			// stores are silent.
			out.changed = append(out.changed, b.Store(rng.Intn(words), Word(rng.Intn(3))))
		}
		out.final = b.Snapshot()
		return out
	}
	for _, probed := range []bool{false, true} {
		shared, private := run(true, probed), run(false, probed)
		if !reflect.DeepEqual(shared, private) {
			t.Fatalf("probed=%v: a shared and a private buffer disagree on one store sequence", probed)
		}
		silent := 0
		for _, c := range shared.changed {
			if !c {
				silent++
			}
		}
		if silent == 0 || silent == steps {
			t.Fatalf("probed=%v: %d of %d stores silent; the sequence must mix both kinds", probed, silent, steps)
		}
		if probed && len(shared.events) != steps {
			t.Fatalf("probe saw %d stores, want %d (silent stores included)", len(shared.events), steps)
		}
	}
}

// TestSharingClassByAllocator pins who gets which class: Alloc is private,
// AllocShared shared (internal/core's TestRegionBuffersAreShared pins that
// regions come from it), and an address range reused after Free carries the
// class of the new allocation, not of the buffer that last lived there.
func TestSharingClassByAllocator(t *testing.T) {
	s := NewSystem()
	private := s.Alloc("private", 8)
	if private.Shared() {
		t.Fatalf("Alloc returned a shared buffer")
	}
	base := private.Base()
	s.Free(private)
	shared := s.AllocShared("shared", 8)
	if shared.Base() != base {
		t.Fatalf("freed range not reused: base %#x, want %#x", shared.Base(), base)
	}
	if !shared.Shared() {
		t.Fatalf("AllocShared over a freed private range returned a private buffer")
	}
	s.Free(shared)
	if again := s.Alloc("again", 8); again.Base() != base || again.Shared() {
		t.Fatalf("Alloc over a freed shared range: base %#x shared %v, want %#x false", again.Base(), again.Shared(), base)
	}
}

// TestSharedBufferHammer is the access pattern only a shared buffer
// supports: one writer storing while readers load the same words, with no
// edge between them. It must be clean under -race, and a reader never sees a
// value the writer did not store (each word only counts up).
func TestSharedBufferHammer(t *testing.T) {
	const words, rounds, readers = 8, 2000, 3
	b := NewSystem().AllocShared("hot", words)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last [words]Word
			for n := 0; n < rounds; n++ {
				for i := range last {
					v := b.Load(i)
					if v < last[i] || v > rounds {
						t.Errorf("word %d read %d after %d", i, v, last[i])
						return
					}
					last[i] = v
				}
			}
		}()
	}
	for n := 1; n <= rounds; n++ {
		for i := 0; i < words; i++ {
			if !b.Store(i, Word(n)) {
				t.Errorf("store %d to word %d reported silent", n, i)
			}
			if b.Store(i, Word(n)) {
				t.Errorf("repeated store %d to word %d reported a change", n, i)
			}
		}
	}
	wg.Wait()
}

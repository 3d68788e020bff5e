package core

import "testing"

// TestGoidNonzeroAndStable covers the hardened goid parser: a successful
// parse never yields the zero sentinel (parse failure panics instead of
// silently returning 0, which would fold every goroutine into one sanitizer
// agent).
func TestGoidNonzeroAndStable(t *testing.T) {
	g := goid()
	if g == 0 {
		t.Fatal("goid() returned 0 on a live goroutine")
	}
	if again := goid(); again != g {
		t.Fatalf("goid() unstable on one goroutine: %d then %d", g, again)
	}
}

// TestGoidDistinctAcrossGoroutines checks that concurrently live goroutines
// observe distinct, nonzero ids — the property the sanitizer's per-goroutine
// agents depend on.
func TestGoidDistinctAcrossGoroutines(t *testing.T) {
	const n = 8
	ids := make(chan uint64, n)
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			ids <- goid()
			<-release // keep every goroutine alive until all ids are read
		}()
	}
	seen := map[uint64]bool{goid(): true}
	for i := 0; i < n; i++ {
		g := <-ids
		if g == 0 {
			t.Fatal("goid() returned 0 on a spawned goroutine")
		}
		if seen[g] {
			t.Fatalf("duplicate goroutine id %d among live goroutines", g)
		}
		seen[g] = true
	}
	close(release)
}

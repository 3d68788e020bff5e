package queue

import (
	"sort"
	"testing"

	"dtt/internal/mem"
)

// The registry's read plane is the per-probe read (Each, against the live
// published index or a pinned Snapshot) and the batch read (Overlapping
// against a pinned Snapshot). These tests pin them against a naive scan of
// Attachments(), including the match order contract (index order = sorted by
// range start).

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	// Overlapping ranges with distinct starts so index order is
	// deterministic: addr 40 matches threads 1 and 2, addr 300 matches 3.
	for _, a := range []Attachment{
		{Thread: 1, Lo: 0, Hi: 64},
		{Thread: 2, Lo: 32, Hi: 128},
		{Thread: 3, Lo: 256, Hi: 320},
	} {
		if err := r.Attach(a.Thread, a.Lo, a.Hi); err != nil {
			t.Fatalf("Attach(%+v): %v", a, err)
		}
	}
	return r
}

// naiveMatches is the reference resolution: every attachment covering
// addr, in order of range start.
func naiveMatches(r *Registry, addr mem.Addr) []ThreadID {
	atts := r.Attachments()
	sort.Slice(atts, func(i, j int) bool { return atts[i].Lo < atts[j].Lo })
	var out []ThreadID
	for _, a := range atts {
		if addr >= a.Lo && addr < a.Hi {
			out = append(out, a.Thread)
		}
	}
	return out
}

// eachIDs collects the threads attached over addr in r's current snapshot.
func eachIDs(r *Registry, addr mem.Addr) []ThreadID { return snapIDs(r.Snapshot(), addr) }

// snapIDs collects the threads of the attachments covering addr as the scalar
// store walks them: the members of s.Prefix(addr) that reach addr, in order.
func snapIDs(s Snapshot, addr mem.Addr) []ThreadID {
	var out []ThreadID
	for _, a := range s.Prefix(addr) {
		if addr < a.Hi {
			out = append(out, a.Thread)
		}
	}
	return out
}

// covers reports whether any attachment covers addr.
func covers(r *Registry, addr mem.Addr) bool { return len(eachIDs(r, addr)) > 0 }

// overlapIDs collects the threads of the attachments s.Overlapping returns
// for the span [lo, hi), in index order.
func overlapIDs(s Snapshot, lo, hi mem.Addr) []ThreadID {
	var out []ThreadID
	for _, a := range s.Overlapping(lo, hi, nil) {
		out = append(out, a.Thread)
	}
	return out
}

func eqIDs(a, b []ThreadID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRegistryReadsAgreeWithNaiveScan(t *testing.T) {
	r := testRegistry(t)
	s := r.Snapshot()
	for addr := mem.Addr(0); addr < 384; addr += 8 {
		want := naiveMatches(r, addr)

		if got := eachIDs(r, addr); !eqIDs(got, want) {
			t.Fatalf("Prefix(%d) of a fresh snapshot covers %v, want %v", addr, got, want)
		}
		if pinned := snapIDs(s, addr); !eqIDs(pinned, want) {
			t.Fatalf("Prefix(%d) of the pinned snapshot covers %v, want %v", addr, pinned, want)
		}
		// A one-word span resolves to exactly the word's matches, in the
		// same order: what the batched store's per-word interval test
		// walks.
		if got := overlapIDs(s, addr, addr+1); !eqIDs(got, want) {
			t.Fatalf("Overlapping(%d, %d) = %v, want %v", addr, addr+1, got, want)
		}
	}
}

// TestRegistrySnapshotPinsOneInstant: a pinned snapshot keeps resolving
// the attachment set it was taken against, while live reads and fresh
// snapshots see mutations — the property batched stores rely on so a
// concurrent Attach lands entirely before or entirely after a batch.
func TestRegistrySnapshotPinsOneInstant(t *testing.T) {
	r := testRegistry(t)
	old := r.Snapshot()
	if err := r.Attach(4, 512, 576); err != nil {
		t.Fatal(err)
	}
	if got := overlapIDs(old, 512, 520); len(got) != 0 {
		t.Fatalf("pinned snapshot sees an attachment made after it was taken: %v", got)
	}
	if got := overlapIDs(r.Snapshot(), 512, 520); !eqIDs(got, []ThreadID{4}) || !covers(r, 512) {
		t.Fatal("fresh snapshot / live read misses the new attachment")
	}
	if r.Detach(4) != 1 {
		t.Fatal("Detach(4) did not remove the attachment")
	}
}

func TestRegistryOverlapping(t *testing.T) {
	r := testRegistry(t)
	s := r.Snapshot()
	for _, tc := range []struct {
		lo, hi mem.Addr
		want   []ThreadID
	}{
		{0, 8, []ThreadID{1}},         // inside the first range only
		{40, 48, []ThreadID{1, 2}},    // in the overlap of 1 and 2
		{0, 384, []ThreadID{1, 2, 3}}, // spans everything
		{128, 256, nil},               // the gap between 2 and 3
		{1 << 20, 1 << 21, nil},       // entirely past the index bounds
		{200, 512, []ThreadID{3}},     // straddles range 3
	} {
		got := overlapIDs(s, tc.lo, tc.hi)
		if !eqIDs(got, tc.want) {
			t.Errorf("Overlapping(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestRegistryEmptyAndErrors: the empty index rejects every probe with
// the bounds pre-check, inverted ranges are attach errors, and detaching
// the last attachment returns the registry to the empty index.
func TestRegistryEmptyAndErrors(t *testing.T) {
	r := NewRegistry()
	if covers(r, 0) {
		t.Fatal("empty registry covers an address")
	}
	if got := r.Snapshot().Overlapping(0, 1<<30, nil); len(got) != 0 {
		t.Fatalf("empty registry Overlapping = %v", got)
	}
	if err := r.Attach(1, 64, 64); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := r.Attach(1, 128, 64); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := r.Attach(1, 0, 64); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !covers(r, 8) {
		t.Fatalf("Len %d covers(8) %v after one attach", r.Len(), covers(r, 8))
	}
	if n := r.Detach(1); n != 1 {
		t.Fatalf("Detach removed %d, want 1", n)
	}
	if r.Detach(1) != 0 {
		t.Fatal("second Detach removed something")
	}
	if covers(r, 8) || r.Len() != 0 {
		t.Fatal("registry not empty after detaching everything")
	}
}

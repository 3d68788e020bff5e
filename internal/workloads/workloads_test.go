package workloads

import (
	"testing"

	"dtt/internal/core"
)

// runBaseline executes w's baseline variant on a fresh system.
func runBaseline(t *testing.T, w Workload, size Size) Result {
	t.Helper()
	res, err := w.RunBaseline(NewBaselineEnv(), size)
	if err != nil {
		t.Fatalf("%s baseline: %v", w.Name(), err)
	}
	return res
}

// runDTT executes w's DTT variant on a fresh runtime with the given config
// mutation.
func runDTT(t *testing.T, w Workload, size Size, mut func(*core.Config)) Result {
	t.Helper()
	cfg := core.Config{Backend: core.BackendDeferred}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := w.RunDTT(NewDTTEnv(rt), size)
	if err != nil {
		t.Fatalf("%s DTT: %v", w.Name(), err)
	}
	return res
}

// checkEquivalence is the central workload correctness property: the DTT
// variant must compute exactly what the baseline computes, under every
// backend and policy knob. The immediate variants are also the race
// detector's view of the memory model (DESIGN.md): a kernel's outputs are
// private buffers with plain stores, so a body read before its Wait, or two
// threads' bodies sharing an output, is a report under `make race`. A full
// two-entry queue runs the overflow bodies inline on the producer beside the
// workers — the schedule in which a private buffer changes hands most often.
// A queue of 8192 entries lets the stores made while the worker is busy stage.
func checkEquivalence(t *testing.T, w Workload) {
	t.Helper()
	size := Size{Scale: 1, Iters: 12, Seed: 7}
	base := runBaseline(t, w, size)
	if base.Checksum == 0 {
		t.Fatalf("%s baseline checksum is zero; fingerprint too weak", w.Name())
	}

	configs := map[string]func(*core.Config){
		"deferred":   nil,
		"immediate":  func(c *core.Config) { c.Backend = core.BackendImmediate; c.Workers = 3 },
		"tiny-queue": func(c *core.Config) { c.QueueCapacity = 2 },
		"immediate-one-worker": func(c *core.Config) {
			c.Backend = core.BackendImmediate
			c.Workers = 1
		},
		// A queue that holds two stages: a store made while every worker
		// runs a body stages its word (the benchmark's shape).
		"immediate-staged": func(c *core.Config) {
			c.Backend = core.BackendImmediate
			c.Workers = 1
			c.QueueCapacity = 8192
		},
		"immediate-tiny-queue": func(c *core.Config) {
			c.Backend = core.BackendImmediate
			c.Workers = 3
			c.QueueCapacity = 2
		},
	}
	for name, mut := range configs {
		got := runDTT(t, w, size, mut)
		if got.Checksum != base.Checksum {
			t.Errorf("%s [%s]: DTT checksum %#x != baseline %#x", w.Name(), name, got.Checksum, base.Checksum)
		}
	}
}

// checkSeedSensitivity guards against checksums that ignore the input.
func checkSeedSensitivity(t *testing.T, w Workload) {
	t.Helper()
	a := runBaseline(t, w, Size{Scale: 1, Iters: 6, Seed: 1})
	b := runBaseline(t, w, Size{Scale: 1, Iters: 6, Seed: 2})
	if a.Checksum == b.Checksum {
		t.Errorf("%s: checksum identical across seeds", w.Name())
	}
	c := runBaseline(t, w, Size{Scale: 1, Iters: 7, Seed: 1})
	if a.Checksum == c.Checksum {
		t.Errorf("%s: checksum identical across iteration counts", w.Name())
	}
}

// checkRedundancySkipped verifies the DTT variant actually skips work:
// silent tstores plus squashes must be visible in runtime stats.
func checkDTTActivity(t *testing.T, w Workload) {
	t.Helper()
	rt, err := core.New(core.Config{Backend: core.BackendDeferred})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := w.RunDTT(NewDTTEnv(rt), Size{Scale: 1, Iters: 12, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.TStores == 0 {
		t.Fatalf("%s: DTT variant issued no triggering stores", w.Name())
	}
	if s.Executed+s.InlineRuns == 0 {
		t.Fatalf("%s: no support-thread instances executed", w.Name())
	}
	if s.Silent == 0 {
		t.Errorf("%s: no silent tstores; the redundancy being eliminated is absent", w.Name())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ammp", "art", "bzip2", "crafty", "equake", "gcc", "gzip", "mcf", "mesa", "parser", "twolf", "vortex", "vpr"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered workloads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered workloads = %v, want %v", got, want)
		}
	}
	for _, w := range All() {
		if w.Suite() == "" || w.Description() == "" {
			t.Errorf("%s: missing suite or description", w.Name())
		}
		if ww, ok := ByName(w.Name()); !ok || ww != w {
			t.Errorf("ByName(%s) broken", w.Name())
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Errorf("ByName(nonesuch) found something")
	}
}

func TestAllWorkloadsEquivalence(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) { checkEquivalence(t, w) })
	}
}

func TestAllWorkloadsSeedSensitivity(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) { checkSeedSensitivity(t, w) })
	}
}

func TestAllWorkloadsDTTActivity(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) { checkDTTActivity(t, w) })
	}
}

func TestDTTWithoutRuntimeFails(t *testing.T) {
	for _, w := range All() {
		if _, err := w.RunDTT(NewBaselineEnv(), DefaultSize()); err == nil {
			t.Errorf("%s: DTT run without runtime succeeded", w.Name())
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("RNG not deterministic at step %d", i)
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatalf("zero seed degenerate")
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(3).Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestSizeDefaults(t *testing.T) {
	s := Size{}.withDefaults()
	if s.Scale != 1 || s.Iters != 40 || s.Seed != 1 {
		t.Fatalf("defaults = %+v", s)
	}
	s = Size{Scale: 2, Iters: 5, Seed: 9}.withDefaults()
	if s.Scale != 2 || s.Iters != 5 || s.Seed != 9 {
		t.Fatalf("explicit size clobbered: %+v", s)
	}
}

package harness

import (
	"testing"

	"dtt/internal/sim"
	"dtt/internal/workloads"
)

// TestTraceInvariantsAcrossWorkloads checks structural invariants that
// every recorded workload trace must satisfy, baseline and DTT.
func TestTraceInvariantsAcrossWorkloads(t *testing.T) {
	size := workloads.Size{Scale: 1, Iters: 8, Seed: 5}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			base, err := recordBaseline(w, size)
			if err != nil {
				t.Fatal(err)
			}
			dtt, err := recordDTT(w, size, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := base.trace.Validate(); err != nil {
				t.Fatalf("baseline trace invalid: %v", err)
			}
			if err := dtt.trace.Validate(); err != nil {
				t.Fatalf("DTT trace invalid: %v", err)
			}
			if base.trace.SupportTasks() != 0 {
				t.Fatalf("baseline trace has support tasks")
			}
			// DTT bookkeeping must never balloon the instruction count;
			// the clear skippers must commit strictly fewer instructions
			// even on this short run. (ammp and the compression codes are
			// marginal by design: churn-heavy triggers, thin margins.)
			bi, di := base.trace.Instructions(), dtt.trace.Instructions()
			if float64(di) > 1.25*float64(bi) {
				t.Errorf("DTT committed %d instructions vs baseline %d; bookkeeping ballooned", di, bi)
			}
			switch w.Name() {
			case "mcf", "art", "parser", "equake", "mesa", "twolf", "vpr":
				if di >= bi {
					t.Errorf("DTT committed %d instructions vs baseline %d; nothing skipped", di, bi)
				}
			}
			// Serialisation conserves work exactly.
			flat := dtt.trace.Serialize()
			if flat.Instructions() != di {
				t.Errorf("Serialize changed instruction count: %d -> %d", di, flat.Instructions())
			}
		})
	}
}

// TestSimWorkConservation checks the timing model's physical bounds on
// real workload traces: a machine cannot run faster than its peak issue
// bandwidth allows, the flattened trace is never faster than the parallel
// one, and occupancy never exceeds the context count.
func TestSimWorkConservation(t *testing.T) {
	size := workloads.Size{Scale: 1, Iters: 8, Seed: 5}
	cfg := evalMachine()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			dtt, err := recordDTT(w, size, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(dtt.trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			peak := float64(cfg.Cores * cfg.IssueWidth)
			if lower := float64(res.Instructions) / peak; res.Cycles < lower-1e-6 {
				t.Errorf("cycles %v below issue-bandwidth bound %v", res.Cycles, lower)
			}
			if avg := res.AvgActiveContexts(); avg > float64(cfg.Contexts())+1e-9 {
				t.Errorf("average active contexts %v exceeds %d", avg, cfg.Contexts())
			}
			flatRes, err := sim.Run(dtt.trace.Serialize(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if flatRes.Cycles+1e-6 < res.Cycles {
				t.Errorf("serialized trace faster than parallel: %v < %v", flatRes.Cycles, res.Cycles)
			}
			if flatRes.Instructions != res.Instructions {
				t.Errorf("serialization changed instructions: %d vs %d", flatRes.Instructions, res.Instructions)
			}
		})
	}
}

// TestSeedRobustness re-runs the headline comparison for two benchmarks on
// a different input instance: the conclusions must not be a property of
// one seed.
func TestSeedRobustness(t *testing.T) {
	for _, name := range []string{"mcf", "gzip"} {
		w, _ := workloads.ByName(name)
		var speedups []float64
		for _, seed := range []uint64{3, 17} {
			size := workloads.Size{Scale: 1, Iters: 10, Seed: seed}
			base, err := recordBaseline(w, size)
			if err != nil {
				t.Fatal(err)
			}
			dtt, err := recordDTT(w, size, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := verifyEquivalence(w, base, dtt); err != nil {
				t.Fatal(err)
			}
			b, d, err := speedupPair(base.trace, dtt.trace, evalMachine())
			if err != nil {
				t.Fatal(err)
			}
			speedups = append(speedups, d.Speedup(b))
		}
		if ratio := speedups[1] / speedups[0]; ratio < 0.6 || ratio > 1.7 {
			t.Errorf("%s: speedup seed-sensitive: %v vs %v", name, speedups[0], speedups[1])
		}
	}
}

// TestSizeScalingMonotone checks that growing the input grows the work.
func TestSizeScalingMonotone(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	small, err := recordBaseline(w, workloads.Size{Scale: 1, Iters: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := recordBaseline(w, workloads.Size{Scale: 2, Iters: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.trace.Instructions() <= small.trace.Instructions() {
		t.Fatalf("scale 2 not larger than scale 1: %d vs %d",
			big.trace.Instructions(), small.trace.Instructions())
	}
}

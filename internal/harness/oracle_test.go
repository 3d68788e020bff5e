package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dtt/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/oracle.golden from a fresh run")

const oracleGolden = "testdata/oracle.golden"

// oracleLines runs every deterministic experiment — all but F10, the one
// wall-clock id — at smallOpts and renders each Report.Values entry as one
// `id key value` line, the value in %.6g, keys sorted within an id and ids
// in experiment order.
func oracleLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, e := range Experiments() {
		if e.ID == "F10" {
			continue
		}
		rep := mustRun(t, e.ID, smallOpts())
		keys := make([]string, 0, len(rep.Values))
		for k := range rep.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			lines = append(lines, fmt.Sprintf("%s %s %.6g", e.ID, k, rep.Values[k]))
		}
	}
	return lines
}

// TestOracleGolden holds the paper machine's outputs still: every
// deterministic experiment's headline values at smallOpts must equal the
// recorded ones, so a runtime or simulator change that moves any T/F value
// fails here with the first moved line. `go test ./internal/harness -run
// TestOracleGolden -update` rewrites the file; a change that does so lists
// the moved lines in its description.
func TestOracleGolden(t *testing.T) {
	got := oracleLines(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(oracleGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(oracleGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s:%d: got %q, want %q (%d lines, golden %d)", oracleGolden, i+1, g, w, len(got), len(want))
		}
	}
}

// TestF10Smoke runs F10 — runF10, and per kernel timeBaseline and timeDTT on
// the immediate backend — at one iteration. Its walls are too short to
// assert anything about, so the check is runF10's own: each kernel's DTT
// checksum equals its baseline's, or the run fails.
func TestF10Smoke(t *testing.T) {
	mustRun(t, "F10", Options{Size: workloads.Size{Scale: 1, Iters: 1, Seed: 3}})
}

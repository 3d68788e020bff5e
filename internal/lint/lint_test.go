package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The golden corpus: each package under testdata/src exercises one rule
// (plus suppress, which exercises the //dtt:ignore machinery). Expected
// diagnostics are written in the source as `want` comments:
//
//	out.Load(0) // want: read-before-wait
//	// want: +1:bad-ignore +2:untriggered-write   (offsets name later lines)
//
// The tests compare the linter's findings against these expectations
// exactly — extra findings fail as loudly as missing ones — so disabling
// or breaking any rule fails the test.

// testdataPatterns enumerates the golden packages as explicit go list
// patterns (./... skips testdata directories by design).
func testdataPatterns(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("reading testdata/src: %v", err)
	}
	var patterns []string
	for _, e := range entries {
		if e.IsDir() {
			patterns = append(patterns, "./internal/lint/testdata/src/"+e.Name())
		}
	}
	if len(patterns) == 0 {
		t.Fatal("no golden packages under testdata/src")
	}
	return patterns
}

// moduleRoot is where the testdata patterns resolve from: the tests run in
// internal/lint, two levels below the module.
const moduleRoot = "../.."

// expectation is one `want` entry: a (file, line, rule) triple.
type expectation struct {
	file string // base name
	line int
	rule string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d: %s", e.file, e.line, e.rule)
}

// parseWants scans the golden sources for want comments. Every named rule
// must be a real rule (or bad-ignore) so a typo cannot silently expect
// nothing.
func parseWants(t *testing.T) []expectation {
	t.Helper()
	valid := map[string]bool{"bad-ignore": true}
	for _, r := range RuleNames() {
		valid[r] = true
	}
	var wants []expectation
	err := filepath.WalkDir(filepath.Join("testdata", "src"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, spec, ok := strings.Cut(line, "want:")
			if !ok {
				continue
			}
			for _, tok := range strings.Fields(spec) {
				offset := 0
				if rest, found := strings.CutPrefix(tok, "+"); found {
					numStr, rule, ok := strings.Cut(rest, ":")
					if !ok {
						t.Fatalf("%s:%d: malformed want token %q", path, i+1, tok)
					}
					n, err := strconv.Atoi(numStr)
					if err != nil {
						t.Fatalf("%s:%d: malformed want offset %q", path, i+1, tok)
					}
					offset, tok = n, rule
				}
				if !valid[tok] {
					t.Fatalf("%s:%d: want names unknown rule %q", path, i+1, tok)
				}
				wants = append(wants, expectation{file: filepath.Base(path), line: i + 1 + offset, rule: tok})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning want comments: %v", err)
	}
	return wants
}

func runGolden(t *testing.T, rules []string) *Result {
	t.Helper()
	res, err := Run(Options{Dir: moduleRoot, Patterns: testdataPatterns(t), Rules: rules})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return res
}

func gotExpectations(res *Result) []expectation {
	var got []expectation
	for _, d := range res.Diagnostics {
		got = append(got, expectation{file: filepath.Base(d.File), line: d.Line, rule: d.Rule})
	}
	return got
}

func diffExpectations(t *testing.T, want, got []expectation) {
	t.Helper()
	counts := make(map[expectation]int)
	for _, w := range want {
		counts[w]++
	}
	for _, g := range got {
		counts[g]--
	}
	var missing, extra []string
	for e, n := range counts {
		for ; n > 0; n-- {
			missing = append(missing, e.String())
		}
		for ; n < 0; n++ {
			extra = append(extra, e.String())
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, m := range missing {
		t.Errorf("missing diagnostic: %s", m)
	}
	for _, e := range extra {
		t.Errorf("unexpected diagnostic: %s", e)
	}
}

// TestGolden runs all rules over the corpus and requires the findings to
// match the want comments exactly.
func TestGolden(t *testing.T) {
	res := runGolden(t, nil)
	diffExpectations(t, parseWants(t), gotExpectations(res))

	// suppress.go carries two well-formed directives, each silencing one
	// true finding.
	if res.Suppressed != 2 {
		t.Errorf("Suppressed = %d, want 2", res.Suppressed)
	}
	if len(res.Packages) != len(testdataPatterns(t)) {
		t.Errorf("analysed %d packages, want %d: %v", len(res.Packages), len(testdataPatterns(t)), res.Packages)
	}
}

// TestConfigMisuseNamesBackend: the Workers finding names the backend by
// core's own constant, so the golden seeded row must say "seeded" whatever
// number the enum gives it.
func TestConfigMisuseNamesBackend(t *testing.T) {
	var named []string
	for _, d := range runGolden(t, []string{"config-misuse"}).Diagnostics {
		if _, rest, ok := strings.Cut(d.Message, "has no effect: the "); ok {
			name, _, _ := strings.Cut(rest, " ")
			named = append(named, name)
		}
	}
	if want := []string{"seeded", "deferred"}; !reflect.DeepEqual(named, want) {
		t.Fatalf("Workers findings name the backends %v, want %v", named, want)
	}
}

// TestRuleToggle runs each rule in isolation and requires it to produce
// exactly its own want set — and nothing when disabled. A rule that stops
// firing (or fires into another rule's territory) fails here by name.
func TestRuleToggle(t *testing.T) {
	wants := parseWants(t)
	for _, name := range RuleNames() {
		t.Run(name, func(t *testing.T) {
			var want []expectation
			for _, w := range wants {
				// bad-ignore is emitted by directive parsing, which runs
				// regardless of rule selection.
				if w.rule == name || w.rule == "bad-ignore" {
					want = append(want, w)
				}
			}
			res := runGolden(t, []string{name})
			diffExpectations(t, want, gotExpectations(res))
			if len(res.Diagnostics) == 0 {
				t.Fatalf("rule %s produced no diagnostics on its golden package", name)
			}
		})
	}
}

// TestSuppressionBookkeeping: disabling untriggered-write must also drop
// the suppressed count to zero — a directive with nothing to suppress is
// not "used".
func TestSuppressionBookkeeping(t *testing.T) {
	res := runGolden(t, []string{"read-before-wait"})
	if res.Suppressed != 0 {
		t.Errorf("Suppressed = %d with untriggered-write disabled, want 0", res.Suppressed)
	}
}

// TestJSONRoundTrip: the Diagnostic JSON encoding is lossless.
func TestJSONRoundTrip(t *testing.T) {
	res := runGolden(t, nil)
	if len(res.Diagnostics) == 0 {
		t.Fatal("corpus produced no diagnostics to round-trip")
	}
	data, err := json.Marshal(res.Diagnostics)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []Diagnostic
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(res.Diagnostics, back) {
		t.Errorf("diagnostics did not survive a JSON round trip:\n got %+v\nwant %+v", back, res.Diagnostics)
	}
}

// TestSelfClean: the repository lints itself clean — the acceptance bar
// the CI lint step enforces, kept here too so `go test` alone catches a
// regression.
func TestSelfClean(t *testing.T) {
	res, err := Run(Options{Dir: moduleRoot, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("repository is not lint-clean: %s", d)
	}
}

// TestExamplesConfigClean: every example selects the backend its Workers
// field needs. Linting ./examples/... loads core only as the stub the root
// dtt package's export data describes, with none of core's Backend
// constants, so naming the backend from core's scope alone called
// BackendImmediate "Backend(1)" and flagged its Workers field.
func TestExamplesConfigClean(t *testing.T) {
	res, err := Run(Options{Dir: moduleRoot, Patterns: []string{"./examples/quickstart"}, Rules: []string{"config-misuse"}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("examples/quickstart: %s", d)
	}
}

// TestUnknownRule: asking for a rule that does not exist is a usage error,
// not a silent no-op.
func TestUnknownRule(t *testing.T) {
	_, err := Run(Options{Dir: moduleRoot, Rules: []string{"no-such-rule"}})
	if err == nil || !strings.Contains(err.Error(), "no-such-rule") {
		t.Fatalf("err = %v, want unknown-rule error naming the rule", err)
	}
}

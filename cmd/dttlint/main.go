// Command dttlint statically checks DTT protocol usage: the compile-time
// counterpart of the runtime's CheckStrict sanitizer. It loads the named
// packages (default ./...), type-checks them against compiler export data,
// and reports protocol misuses with file:line positions and fix hints.
//
// Usage:
//
//	dttlint ./...
//	dttlint -json ./examples/... ./cmd/...
//	dttlint -rules read-before-wait,config-misuse ./...
//	dttlint -locktable     (print the lock-order lattice and exit)
//
// Findings are suppressed one at a time with a justified comment:
//
//	//dtt:ignore <rule> -- <justification>
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dtt/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dttlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
		rules     = fs.String("rules", "", "comma-separated rules to run (default: all of "+strings.Join(lint.RuleNames(), ",")+")")
		dir       = fs.String("C", "", "resolve package patterns from this directory")
		quiet     = fs.Bool("q", false, "suppress the clean-run summary line")
		locktable = fs.Bool("locktable", false, "print the lock-order lattice as a markdown table and exit (CI diffs this against DESIGN.md)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *locktable {
		fmt.Fprint(stdout, lint.LockTable())
		return 0
	}

	opts := lint.Options{Dir: *dir, Patterns: fs.Args()}
	if *rules != "" {
		for _, r := range strings.Split(*rules, ",") {
			if r = strings.TrimSpace(r); r != "" {
				opts.Rules = append(opts.Rules, r)
			}
		}
	}

	res, err := lint.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "dttlint: %v\n", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		diags := res.Diagnostics
		if diags == nil {
			diags = []lint.Diagnostic{} // emit [], not null
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "dttlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stdout, d.String())
		}
	}

	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(stderr, "dttlint: %d finding(s) in %d package(s), %d suppressed\n",
			len(res.Diagnostics), len(res.Packages), res.Suppressed)
		return 1
	}
	if !*quiet && !*jsonOut {
		fmt.Fprintf(stdout, "dttlint: clean (%d package(s), %d suppressed)\n",
			len(res.Packages), res.Suppressed)
	}
	return 0
}

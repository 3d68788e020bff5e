// Command dttbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dttbench                 # run every experiment (T1..T4, F1..F14)
//	dttbench -exp F3,F4      # run selected experiments
//	dttbench -list           # list experiment IDs and titles
//	dttbench -iters 80       # scale the workloads
//
// See DESIGN.md for the experiment-to-paper mapping and EXPERIMENTS.md for
// recorded results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dtt/internal/harness"
	"dtt/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dttbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps  = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		list  = fs.Bool("list", false, "list experiments and exit")
		scale = fs.Int("scale", 1, "workload data scale factor")
		iters = fs.Int("iters", 40, "workload outer iterations")
		seed  = fs.Uint64("seed", 1, "workload input seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := harness.Options{Size: workloads.Size{Scale: *scale, Iters: *iters, Seed: *seed}}

	var selected []harness.Experiment
	if *exps == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "dttbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "dttbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprint(stdout, rep.String())
	}
	return 0
}

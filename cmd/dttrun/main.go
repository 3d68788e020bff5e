// Command dttrun executes one workload in baseline or DTT mode and prints
// its checksum and runtime statistics. It is the quickest way to inspect a
// single kernel's trigger behaviour.
//
// Usage:
//
//	dttrun -workload mcf -mode dtt -backend immediate -workers 3
//	dttrun -workload equake -mode baseline
//	dttrun -workload mcf -check                      # protocol sanitizer on
//	dttrun -workload mcf -backend seeded -sched-seed 7
//	dttrun -workload mcf -timeline                   # recorded, simulated schedule
//	dttrun -workload mcf -backend seeded -sched-seed 7 -timeline
//	dttrun -workload mcf -backend immediate -iters 4000 \
//	    -metrics 127.0.0.1:9090 -metrics-hold 30s    # scrape while it runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/sim"
	"dtt/internal/trace"
	"dtt/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code. Sanitizer violations exit 1 after the report.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dttrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "mcf", "workload name ("+strings.Join(workloads.Names(), ", ")+")")
		mode      = fs.String("mode", "dtt", "baseline or dtt")
		backend   = fs.String("backend", "deferred", "dtt backend: deferred, immediate or seeded")
		workers   = fs.Int("workers", 2, "support-thread contexts for the immediate backend")
		qcap      = fs.Int("queue", 64, "thread queue capacity")
		scale     = fs.Int("scale", 1, "workload data scale factor")
		iters     = fs.Int("iters", 40, "workload outer iterations")
		seed      = fs.Uint64("seed", 1, "workload input seed")
		check     = fs.Bool("check", false, "run the DTT protocol sanitizer (CheckStrict) and exit 1 on violations")
		schedSeed = fs.Uint64("sched-seed", 0, "deterministic-scheduler seed for the seeded backend")
		showTL    = fs.Bool("timeline", false, "record the run, simulate it and print the per-context schedule (dtt mode; deferred or seeded backend)")
		metrics   = fs.String("metrics", "", "serve /metrics and /debug/vars on this address during the run (dtt mode), e.g. 127.0.0.1:9090")
		hold      = fs.Duration("metrics-hold", 0, "keep the process (and the metrics endpoint) alive this long after the workload finishes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w, ok := workloads.ByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "dttrun: unknown workload %q; available: %s\n", *name, strings.Join(workloads.Names(), ", "))
		return 2
	}
	size := workloads.Size{Scale: *scale, Iters: *iters, Seed: *seed}

	start := time.Now()
	switch *mode {
	case "baseline":
		res, err := w.RunBaseline(workloads.NewBaselineEnv(), size)
		if err != nil {
			fmt.Fprintf(stderr, "dttrun: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s baseline: checksum %#x in %v\n", w.Name(), res.Checksum, time.Since(start))
	case "dtt":
		cfg := core.Config{QueueCapacity: *qcap, MetricsAddr: *metrics}
		if *check {
			cfg.Checker = core.CheckStrict
		}
		ran := *backend // what the result line says executed
		switch *backend {
		case "deferred":
			cfg.Backend = core.BackendDeferred
		case "immediate":
			cfg.Backend = core.BackendImmediate
			cfg.Workers = *workers
		case "seeded":
			cfg.Backend = core.BackendSeeded
			cfg.SchedSeed = *schedSeed
			ran = fmt.Sprintf("seeded(%d)", *schedSeed)
		default:
			fmt.Fprintf(stderr, "dttrun: unknown backend %q\n", *backend)
			return 2
		}
		if *showTL {
			// The timeline is simulated from the recorded task DAG, and a
			// recorder needs the run on one goroutine.
			if cfg.Backend == core.BackendImmediate {
				fmt.Fprintln(stderr, "dttrun: -timeline records the run, which -backend immediate cannot; use -backend deferred or seeded")
				return 2
			}
			cfg.Recorder = trace.NewRecorder(mem.NewHierarchy(mem.DefaultHierarchy()))
			ran += "+recorder"
		}
		rt, err := core.New(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "dttrun: %v\n", err)
			return 1
		}
		defer rt.Close()
		if addr := rt.MetricsAddr(); addr != "" {
			fmt.Fprintf(stderr, "dttrun: serving metrics on http://%s/metrics (expvar at /debug/vars)\n", addr)
		}
		res, err := w.RunDTT(workloads.NewDTTEnv(rt), size)
		if err != nil {
			fmt.Fprintf(stderr, "dttrun: %v\n", err)
			return 1
		}
		s := rt.Stats()
		fmt.Fprintf(stdout, "%s dtt (%s): checksum %#x in %v\n", w.Name(), ran, res.Checksum, time.Since(start))
		fmt.Fprintf(stdout, "  tstores %d (silent %d, %.1f%%)\n", s.TStores, s.Silent, 100*s.SilentFraction())
		fmt.Fprintf(stdout, "  triggers fired %d: enqueued %d, squashed %d, overflowed %d\n", s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
		fmt.Fprintf(stdout, "  support instances: %d queued + %d inline\n", s.Executed, s.InlineRuns)
		if *showTL {
			tr, err := cfg.Recorder.Finish()
			if err != nil {
				fmt.Fprintf(stderr, "dttrun: %v\n", err)
				return 1
			}
			tl, err := sim.RunTimeline(tr, sim.Default())
			if err != nil {
				fmt.Fprintf(stderr, "dttrun: %v\n", err)
				return 1
			}
			fmt.Fprint(stdout, tl.String())
		}
		if *hold > 0 && rt.MetricsAddr() != "" {
			fmt.Fprintf(stderr, "dttrun: holding %v for scrapes (ctrl-c to stop early)\n", *hold)
			time.Sleep(*hold)
		}
		if *check {
			vs := rt.Violations()
			if len(vs) == 0 {
				fmt.Fprintf(stdout, "  sanitizer: clean\n")
			} else {
				fmt.Fprintf(stderr, "dttrun: sanitizer found %d protocol violation(s):\n", len(vs))
				for _, v := range vs {
					fmt.Fprintf(stderr, "  %s\n", v)
				}
				return 1
			}
		}
	default:
		fmt.Fprintf(stderr, "dttrun: unknown mode %q\n", *mode)
		return 2
	}
	return 0
}

// Command dttserve exposes a DTT runtime as a network trigger plane:
// clients connect over TCP, attach support threads to session-private
// regions, stream batched triggering stores in, and receive change
// notifications back. Each connection is an isolated tenant.
//
// Usage:
//
//	dttserve -listen 127.0.0.1:7171
//	dttserve -listen 127.0.0.1:0 -metrics 127.0.0.1:0 -hold 30s
//	dttserve -workers 4 -queue 256
//
// The bound listen address is printed on the first stdout line, so
// scripts can run `-listen 127.0.0.1:0` and scrape the ephemeral port.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"dtt/internal/core"
	"dtt/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dttserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen  = fs.String("listen", "127.0.0.1:0", "TCP address to serve the trigger plane on")
		workers = fs.Int("workers", 2, "support-thread contexts")
		qcap    = fs.Int("queue", 64, "thread queue capacity")
		check   = fs.Bool("check", false, "run the DTT protocol sanitizer (CheckStrict) and exit 1 on violations")
		metrics = fs.String("metrics", "", "serve /metrics and /debug/vars on this address, e.g. 127.0.0.1:9090")
		hold    = fs.Duration("hold", 0, "serve this long and exit cleanly (0 = until interrupted)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := core.Config{
		Backend:       core.BackendImmediate,
		Workers:       *workers,
		QueueCapacity: *qcap,
		Telemetry:     *metrics != "",
	}
	if *check {
		cfg.Checker = core.CheckStrict
	}
	rt, err := core.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "dttserve: %v\n", err)
		return 1
	}
	defer rt.Close()

	srv := serve.NewServer(rt, serve.Options{})
	addr, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintf(stderr, "dttserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "dttserve: listening on %s\n", addr)
	if *metrics != "" {
		maddr, err := srv.StartMetrics(*metrics)
		if err != nil {
			fmt.Fprintf(stderr, "dttserve: %v\n", err)
			srv.Close()
			return 1
		}
		fmt.Fprintf(stdout, "dttserve: serving metrics on http://%s/metrics (expvar at /debug/vars)\n", maddr)
	}

	if *hold > 0 {
		time.Sleep(*hold)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		signal.Stop(sig)
		fmt.Fprintf(stderr, "dttserve: interrupted, shutting down\n")
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "dttserve: %v\n", err)
		return 1
	}

	c := srv.Counters()
	s := rt.Stats()
	fmt.Fprintf(stdout, "dttserve: served %d sessions: %d batches, %d stores (%d changed), %d notifies (%d dropped), %d errors\n",
		c.SessionsTotal, c.Batches, c.Stores, c.Changed, c.Notifies, c.NotifyDropped, c.Errors)
	fmt.Fprintf(stdout, "  triggers fired %d: enqueued %d, squashed %d, overflowed %d\n",
		s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		fmt.Fprintf(stderr, "dttserve: counter identity violated\n")
		return 1
	}
	if *check {
		if err := rt.CheckErr(); err != nil {
			fmt.Fprintf(stderr, "dttserve: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  sanitizer: clean\n")
	}
	return 0
}

// Command dttclient is the load driver for dttserve: it opens N
// concurrent sessions, attaches M support threads each, streams batched
// triggering stores and reports wire throughput and notification counts.
//
// Usage:
//
//	dttclient -addr 127.0.0.1:7171 -sessions 8 -threads 2 -batches 200
//	dttclient -smoke    # self-contained loopback smoke: in-process
//	                    # server, one scripted session, /metrics scrape,
//	                    # counter-identity assertion; exit 0 on success
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtt/internal/core"
	"dtt/internal/mem"
	"dtt/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// syncWriter serialises the session goroutines' diagnostics onto one
// writer: fmt.Fprintf from concurrent goroutines is not atomic, and the
// tests pass a plain bytes.Buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dttclient", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "dttserve address to drive")
		sessions = fs.Int("sessions", 4, "concurrent client sessions")
		threads  = fs.Int("threads", 2, "support threads attached per session")
		batches  = fs.Int("batches", 50, "TSTORE_BATCH requests per thread")
		words    = fs.Int("words", 64, "words per batch")
		smoke    = fs.Bool("smoke", false, "run the self-contained loopback smoke test and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smoke {
		return runSmoke(stdout, stderr)
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "dttclient: -addr required (or -smoke)")
		return 2
	}

	var (
		wg        sync.WaitGroup
		okBatches atomic.Int64
		okStores  atomic.Int64
		notifies  atomic.Int64
		failures  atomic.Int64
	)
	errw := &syncWriter{w: stderr}
	start := time.Now()
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := serve.Dial(*addr)
			if err != nil {
				fmt.Fprintf(errw, "dttclient: session %d: %v\n", i, err)
				failures.Add(1)
				return
			}
			defer cs.Close()
			handles := make([]uint32, *threads)
			for k := range handles {
				h, err := cs.Attach(fmt.Sprintf("r%d", k), *words, 0, *words)
				if err != nil {
					fmt.Fprintf(errw, "dttclient: session %d: attach: %v\n", i, err)
					failures.Add(1)
					return
				}
				if err := cs.Subscribe(h); err != nil {
					fmt.Fprintf(errw, "dttclient: session %d: subscribe: %v\n", i, err)
					failures.Add(1)
					return
				}
				handles[k] = h
			}
			vs := make([]mem.Word, *words)
			for b := 1; b <= *batches; b++ {
				for _, h := range handles {
					for w := range vs {
						vs[w] = uint64(b*(*words) + w)
					}
					if _, err := cs.Batch(h, 0, vs); err != nil {
						fmt.Fprintf(errw, "dttclient: session %d: batch: %v\n", i, err)
						failures.Add(1)
						return
					}
					okBatches.Add(1)
					okStores.Add(int64(*words))
				}
			}
			for _, h := range handles {
				if err := cs.Wait(h); err != nil {
					fmt.Fprintf(errw, "dttclient: session %d: wait: %v\n", i, err)
					failures.Add(1)
					return
				}
			}
			notifies.Add(int64(len(cs.Notifies())))
		}(i)
	}
	wg.Wait()
	el := time.Since(start)
	fmt.Fprintf(stdout, "dttclient: %d sessions × %d threads × %d batches × %d words in %v\n",
		*sessions, *threads, *batches, *words, el.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  %d batches ok (%.0f batches/s, %.0f stores/s), %d notifies received\n",
		okBatches.Load(), float64(okBatches.Load())/el.Seconds(), float64(okStores.Load())/el.Seconds(), notifies.Load())
	if failures.Load() > 0 {
		fmt.Fprintf(stderr, "dttclient: %d session(s) failed\n", failures.Load())
		return 1
	}
	return 0
}

// runSmoke is the serve-smoke gate: an in-process server, one scripted
// session over loopback, a /metrics scrape, and the counter identity
// asserted from the scraped values — the network-plane equivalent of the
// allocs gate, cheap enough for every CI run.
func runSmoke(stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dttclient: smoke: "+format+"\n", a...)
		return 1
	}
	rt, err := core.New(core.Config{
		Backend: core.BackendImmediate, Workers: 2, Telemetry: true,
	})
	if err != nil {
		return fail("%v", err)
	}
	defer rt.Close()
	srv := serve.NewServer(rt, serve.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	defer srv.Close()
	maddr, err := srv.StartMetrics("127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}

	const (
		words   = 16
		batches = 8
	)
	cs, err := serve.Dial(addr)
	if err != nil {
		return fail("dial: %v", err)
	}
	defer cs.Close()
	h, err := cs.Attach("smoke", words, 0, words)
	if err != nil {
		return fail("attach: %v", err)
	}
	if err := cs.Subscribe(h); err != nil {
		return fail("subscribe: %v", err)
	}
	vs := make([]mem.Word, words)
	var changed int
	for b := 1; b <= batches; b++ {
		for w := range vs {
			vs[w] = uint64(b*words + w)
		}
		n, err := cs.Batch(h, 0, vs)
		if err != nil {
			return fail("batch %d: %v", b, err)
		}
		changed += n
	}
	if err := cs.Wait(h); err != nil {
		return fail("wait: %v", err)
	}
	got := len(cs.Notifies())
	if got == 0 {
		return fail("no notifications after %d changing batches", batches)
	}

	// Scrape the metrics endpoint and re-assert the counter identity from
	// the exported values, exactly as a monitoring stack would see them.
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		return fail("scrape: %v", err)
	}
	defer resp.Body.Close()
	vals := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			vals[name] = n
		}
	}
	if err := sc.Err(); err != nil {
		return fail("scrape read: %v", err)
	}
	if vals["dtt_fired_total"] != vals["dtt_enqueued_total"]+vals["dtt_squashed_total"]+vals["dtt_overflowed_total"] {
		return fail("scraped identity violated: fired %d != enqueued %d + squashed %d + overflowed %d",
			vals["dtt_fired_total"], vals["dtt_enqueued_total"], vals["dtt_squashed_total"], vals["dtt_overflowed_total"])
	}
	if vals["dtt_serve_batches_total"] != batches {
		return fail("dtt_serve_batches_total = %d, want %d", vals["dtt_serve_batches_total"], batches)
	}
	if vals["dtt_serve_changed_total"] != int64(changed) {
		return fail("dtt_serve_changed_total = %d, want %d", vals["dtt_serve_changed_total"], changed)
	}
	if vals["dtt_serve_notifies_total"] != int64(got) {
		return fail("dtt_serve_notifies_total = %d, client received %d", vals["dtt_serve_notifies_total"], got)
	}
	fmt.Fprintf(stdout, "serve-smoke: ok — %d batches, %d changed stores, %d notifies; scraped identity holds (fired %d = enqueued %d + squashed %d + overflowed %d)\n",
		batches, changed, got, vals["dtt_fired_total"], vals["dtt_enqueued_total"], vals["dtt_squashed_total"], vals["dtt_overflowed_total"])
	return 0
}

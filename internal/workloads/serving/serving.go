// Package serving is the serving-workload suite: traffic-shaped
// scenarios driven end to end over the network trigger plane
// (internal/serve) by the open-loop load generator (internal/loadgen),
// reporting tail latency the way a serving system is judged — p50/p99/
// p999 from histograms, under Poisson offered load, with coordinated
// omission measured rather than hidden.
//
// The 12 SPEC-shaped kernels reproduce the paper's redundancy structure;
// none of them look like traffic. Each scenario here is a serving idiom
// built on the triggering-store planes:
//
//	webcache     TStoreBatch writes -> CHANGE_NOTIFY invalidations keep a
//	             client cache fresh; notify gaps (the PR's headline
//	             bugfix) are detected in-band and recovered via READ, so
//	             staleness is bounded instead of forever
//	matview      TUpdateBatch(UpdAdd) deltas -> merge-time triggers
//	             maintain a materialized running aggregate at the client
//	pubsub       one publisher fans a publish out to N subscriber
//	             sessions; the tail of delivery latency is the product
//	leaderboard  TUpdateBatch(UpdMax/UpdMin) score folds; the view is the
//	             high/low watermarks, silent when a score does not move them
//
// Every scenario runs against a real loopback TCP server, asserts the
// dispatch-plane counter identity and the notify-gap accounting identity
// when it finishes, and reports two latencies per request: trigger->
// dispatch (server-side histogram, where the paper's mechanism lives)
// and trigger->result (client-observed from the SCHEDULED arrival
// instant, so schedule slip counts against the tail).
package serving

import (
	"fmt"
	"io"
	"time"

	"dtt/internal/core"
	"dtt/internal/loadgen"
	"dtt/internal/serve"
	"dtt/internal/telemetry"
)

// Config sizes one scenario run. The zero value is not runnable; use
// withDefaults (Run applies it).
type Config struct {
	// Rate is the offered load in arrivals per second.
	Rate float64
	// Duration bounds the open-loop run.
	Duration time.Duration
	// Seed determines the arrival schedule and every random choice the
	// driver makes; same seed, same run.
	Seed uint64
	// Keys is the scenario's key-space size in words.
	Keys int
	// BatchWords is the words carried per arrival.
	BatchWords int
	// Sessions is the fan-out width (pubsub subscribers).
	Sessions int
	// MailboxCap overrides the server's notify mailbox bound (0 = server
	// default). Smoke and gap tests shrink it to force shedding.
	MailboxCap int
	// Workers and Shards configure the runtime's dispatch plane.
	Workers, Shards int
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 2000
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Keys <= 0 {
		c.Keys = 256
	}
	if c.BatchWords <= 0 {
		c.BatchWords = 16
	}
	if c.BatchWords > c.Keys {
		c.BatchWords = c.Keys
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	return c
}

// LatencySummary is the quantile triple of one latency distribution,
// extracted from a histogram snapshot (linear interpolation within
// buckets, open top bucket clamped to its lower bound).
type LatencySummary struct {
	Count int64
	P50   float64
	P99   float64
	P999  float64
}

func summarize(s telemetry.HistogramSnapshot) LatencySummary {
	return LatencySummary{
		Count: s.Count(),
		P50:   s.Quantile(0.50),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}

// Report is one scenario run's result.
type Report struct {
	Scenario string
	// Offered counts scheduled arrivals issued; Completed counts the
	// operations that finished (for pubsub, one per subscriber
	// delivery).
	Offered   int64
	Completed int64
	// Notifies is the notifications (changed words) the run consumed;
	// Gaps is the notifications shed at the mailbox cap as observed
	// IN-BAND by the client; Recoveries counts READ re-reads triggered by those gaps.
	// Gaps always equals the server's NotifyDropped counter (asserted at
	// finish) — that is the bugfix's accounting identity.
	Notifies   int64
	Gaps       int64
	Recoveries int64
	// Stale counts end-of-run divergences between the client's derived
	// view and the authoritative region. With gap recovery it must be 0.
	Stale int64
	// Dispatch is server-side trigger->dispatch latency (the dispatch
	// plane's own histogram, deltas over this run only). Result is
	// client-observed trigger->result latency from the scheduled arrival
	// instant.
	Dispatch LatencySummary
	Result   LatencySummary
}

// Scenario is one serving workload.
type Scenario interface {
	Name() string
	Description() string
	Run(cfg Config) (Report, error)
}

// All returns the suite in reporting order.
func All() []Scenario {
	return []Scenario{webcache{}, matview{}, pubsub{}, leaderboard{}}
}

// ByName returns the named scenario.
func ByName(name string) (Scenario, bool) {
	for _, s := range All() {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// env is the shared per-run substrate: an in-process runtime, a loopback
// server over it, the client-side result histogram and the dispatch
// histogram baseline to delta against.
type env struct {
	cfg        Config
	rt         *core.Runtime
	srv        *serve.Server
	addr       string
	resultHist *telemetry.Histogram
	dispatch0  telemetry.HistogramSnapshot
	rep        Report
}

const dispatchHistName = "dtt_trigger_dispatch_latency_ns"

func dispatchSnap(rt *core.Runtime) (telemetry.HistogramSnapshot, error) {
	for _, h := range rt.TelemetrySnapshot().Histograms {
		if h.Name == dispatchHistName {
			return h, nil
		}
	}
	return telemetry.HistogramSnapshot{}, fmt.Errorf("serving: runtime exports no %s histogram", dispatchHistName)
}

// newEnv boots the loopback plane for one scenario run.
func newEnv(name string, cfg Config) (*env, error) {
	cfg = cfg.withDefaults()
	rt, err := core.New(core.Config{
		Backend:   core.BackendImmediate,
		Workers:   cfg.Workers,
		Shards:    cfg.Shards,
		Telemetry: true,
	})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(rt, serve.Options{MailboxCap: cfg.MailboxCap})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	d0, err := dispatchSnap(rt)
	if err != nil {
		srv.Close()
		rt.Close()
		return nil, err
	}
	return &env{
		cfg:        cfg,
		rt:         rt,
		srv:        srv,
		addr:       addr,
		resultHist: telemetry.NewHistogram(telemetry.LatencyBounds),
		dispatch0:  d0,
		rep:        Report{Scenario: name},
	}, nil
}

// observeResult records one completed operation against its scheduled
// arrival instant on the telemetry clock.
func (e *env) observeResult(scheduledAt int64) {
	e.resultHist.Observe(telemetry.Now() - scheduledAt)
}

// finish tears the plane down, extracts the run's latency quantiles and
// asserts the accounting identities every scenario must uphold:
//
//	Fired = Enqueued + Squashed + Overflowed   (dispatch plane)
//	client in-band gap count = server NotifyDropped  (the bugfix)
func (e *env) finish() (Report, error) {
	d1, err := dispatchSnap(e.rt)
	if err == nil {
		e.rep.Dispatch = summarize(d1.Sub(e.dispatch0))
	}
	e.rep.Result = summarize(e.resultHist.Snapshot("trigger_to_result_ns", ""))
	c := e.srv.Counters()
	s := e.rt.Stats()
	closeErr := e.srv.Close()
	e.rt.Close()
	if err != nil {
		return e.rep, err
	}
	if closeErr != nil {
		return e.rep, fmt.Errorf("serving: server close: %w", closeErr)
	}
	if s.Fired != s.Enqueued+s.Squashed+s.Overflowed {
		return e.rep, fmt.Errorf("serving: %s broke the dispatch identity: Fired %d != Enqueued %d + Squashed %d + Overflowed %d",
			e.rep.Scenario, s.Fired, s.Enqueued, s.Squashed, s.Overflowed)
	}
	if e.rep.Gaps != c.NotifyDropped {
		return e.rep, fmt.Errorf("serving: %s has unexplained notify gaps: client observed %d in-band, server shed %d",
			e.rep.Scenario, e.rep.Gaps, c.NotifyDropped)
	}
	return e.rep, nil
}

// drain folds a session's buffered notifications into the report and the
// caller's view via apply, then checks the in-band gap signal. A nonzero
// gap calls onGap (the scenario's READ re-read) and counts it.
func (e *env) drain(cs *serve.Session, apply func(serve.Notify), onGap func() error) error {
	for _, n := range cs.Notifies() {
		e.rep.Notifies++
		if apply != nil {
			apply(n)
		}
	}
	if g := cs.TakeGap(); g > 0 {
		e.rep.Gaps += int64(g)
		if onGap != nil {
			e.rep.Recoveries++
			if err := onGap(); err != nil {
				return fmt.Errorf("serving: gap recovery: %w", err)
			}
		}
	}
	return nil
}

// runOpenLoop issues fn once per scheduled Poisson arrival until the
// configured duration of schedule has been offered. The arrival count is a
// function of (seed, rate, duration) alone — the system under test never
// shrinks the offered load, it only makes arrivals late.
func (e *env) runOpenLoop(fn func(scheduledAt int64, k int) error) error {
	p := loadgen.NewPacer(loadgen.NewArrivals(e.cfg.Seed, e.cfg.Rate))
	deadline := telemetry.Now() + e.cfg.Duration.Nanoseconds()
	for k := 0; ; k++ {
		scheduled, _ := p.Tick()
		if scheduled > deadline {
			break
		}
		e.rep.Offered++
		if err := fn(scheduled, k); err != nil {
			return err
		}
	}
	return nil
}

// Smoke runs every scenario briefly against a loopback server and fails
// on any broken identity: a dispatch-counter mismatch, an in-band gap
// count that disagrees with the server's shed counter, a stale client
// view, or a run that completed nothing. It is the body of
// TestServingSmoke, which `make serving-smoke` runs.
func Smoke(w io.Writer) error {
	for _, s := range All() {
		rep, err := s.Run(Config{Rate: 2000, Duration: 250 * time.Millisecond, Seed: 1})
		if err != nil {
			return fmt.Errorf("serving smoke: %s: %w", s.Name(), err)
		}
		if rep.Completed == 0 {
			return fmt.Errorf("serving smoke: %s completed no operations over %d offered", s.Name(), rep.Offered)
		}
		if rep.Stale != 0 {
			return fmt.Errorf("serving smoke: %s left %d stale words after %d gap recoveries", s.Name(), rep.Stale, rep.Recoveries)
		}
		fmt.Fprintf(w, "serving %-12s offered=%d completed=%d notifies=%d gaps=%d recoveries=%d dispatch_p99=%.0fns result_p99=%.0fns\n",
			s.Name(), rep.Offered, rep.Completed, rep.Notifies, rep.Gaps, rep.Recoveries, rep.Dispatch.P99, rep.Result.P99)
	}
	return nil
}

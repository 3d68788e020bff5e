// Package loadgen is the open-loop load plane of the serving-workload
// suite: a seeded Poisson arrival generator and a pacer that issues those
// arrivals against the wall clock without ever letting the system under
// test slow the schedule down.
//
// Open-loop means the arrival schedule is fixed before the system's
// responses are seen: an arrival that finds the driver still busy is
// issued late and its latency is measured FROM THE SCHEDULED TIME, not
// from when the driver got around to it. A closed-loop driver
// (store-as-fast-as-possible, one request outstanding) hides queueing
// delay by slowing its own offered load — the coordinated-omission trap —
// and measures throughput, not the latency a user arriving at a fixed
// rate would see. The pacer accounts every late arrival so a report can
// say how much of the tail is schedule slip rather than hide it.
//
// Determinism: the schedule derives from internal/sched's splitmix64
// stream, so the same seed and rate produce a byte-identical arrival
// schedule — a tail-latency regression reproduces from its seed the same
// way a scheduler interleaving does.
package loadgen

import (
	"math"
	"time"

	"dtt/internal/sched"
	"dtt/internal/telemetry"
)

// Arrivals is a seeded Poisson arrival schedule: successive Next calls
// return strictly non-decreasing nanosecond offsets from the stream's
// origin, with exponentially distributed gaps at the configured rate.
// It is not safe for concurrent use; each driver goroutine owns one.
type Arrivals struct {
	src  *sched.Scheduler
	rate float64 // arrivals per second
	at   int64   // offset of the most recently returned arrival, ns
}

// NewArrivals returns a Poisson arrival schedule at ratePerSec arrivals
// per second, fully determined by seed. It panics on a non-positive rate:
// an open-loop run without a target rate is a closed-loop run.
func NewArrivals(seed uint64, ratePerSec float64) *Arrivals {
	if ratePerSec <= 0 || math.IsInf(ratePerSec, 0) || math.IsNaN(ratePerSec) {
		panic("loadgen: arrival rate must be positive and finite")
	}
	return &Arrivals{src: sched.New(seed), rate: ratePerSec}
}

// Rate returns the configured arrival rate per second.
func (a *Arrivals) Rate() float64 { return a.rate }

// Next advances the schedule and returns the next arrival's offset in
// nanoseconds from the stream origin. The arrival-tick hot path: pure
// arithmetic on the splitmix64 draw, 0 allocs/op (gated by
// TestArrivalsFastPathAllocs and the Makefile allocs-gate).
func (a *Arrivals) Next() int64 {
	// Inverse-CDF exponential gap: -ln(1-u)/rate seconds, with u drawn
	// uniform in [0, 1) from the top 53 bits of the stream. 1-u is in
	// (0, 1], so the log is finite; u == 0 gives a zero gap, which is a
	// legal (simultaneous) Poisson arrival.
	u := float64(a.src.Uint64()>>11) * (1.0 / (1 << 53))
	gap := -math.Log1p(-u) / a.rate // seconds
	a.at += int64(gap * 1e9)
	return a.at
}

// Pacer issues an Arrivals schedule against the telemetry clock,
// accounting — not absorbing — schedule slip.
type Pacer struct {
	arr   *Arrivals
	start int64 // telemetry.Now at construction: the stream origin
	// late accounting: arrivals issued after their scheduled instant.
	lateCount int64
	lateMax   int64
	lateSum   int64
}

// NewPacer starts the schedule's origin clock now.
func NewPacer(a *Arrivals) *Pacer {
	return &Pacer{arr: a, start: telemetry.Now()}
}

// Tick blocks until the next scheduled arrival instant and returns that
// instant on the telemetry clock plus how late the arrival was issued
// (0 when the pacer woke on time). Latency measured from the returned
// scheduled instant includes queueing delay the driver itself caused —
// that is the open-loop contract. A behind-schedule Tick returns
// immediately: the schedule never stretches to match the system.
func (p *Pacer) Tick() (scheduled, late int64) {
	scheduled = p.start + p.arr.Next()
	now := telemetry.Now()
	if wait := scheduled - now; wait > 0 {
		time.Sleep(time.Duration(wait))
		return scheduled, 0
	}
	late = now - scheduled
	if late > 0 {
		p.lateCount++
		p.lateSum += late
		if late > p.lateMax {
			p.lateMax = late
		}
	}
	return scheduled, late
}

// Late reports the slip so far: how many arrivals were issued late, the
// worst lateness, and the summed lateness (all ns).
func (p *Pacer) Late() (count, max, sum int64) {
	return p.lateCount, p.lateMax, p.lateSum
}

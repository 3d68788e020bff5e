package telemetry

import (
	"fmt"
	"sync/atomic"
)

// LatencyBounds are the upper bucket bounds, in nanoseconds, of the
// latency and duration histograms: decade steps with 1/2.5/5 subdivisions
// through the microsecond range, coarsening above a millisecond. The top
// bucket is +Inf.
var LatencyBounds = []int64{
	100, 250, 500,
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

// DepthBounds are the upper bucket bounds of the queue-depth histogram:
// powers of two through the largest queue capacities in use.
var DepthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// BatchBounds are the upper bucket bounds of the batched-store size
// histogram: powers of two through the largest spans the workloads write
// in one TStoreBatch call.
var BatchBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Observe is a short bounds scan plus two atomic adds and never
// allocates; there is no lock anywhere. The zero value is not usable;
// histograms are initialised by New (as part of a T) or NewHistogram.
type Histogram struct {
	bounds []int64
	// counts[i] counts observations v <= bounds[i] (and > bounds[i-1]);
	// counts[len(bounds)] is the +Inf bucket.
	counts []atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns a standalone histogram over the given ascending
// bucket bounds (the last implicit bucket is +Inf). Subsystems outside the
// runtime's T — the serving plane's trigger-to-notify latency, for one —
// build their histograms this way and fold them into a Snapshot via
// Histogram.Snapshot.
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{}
	h.init(bounds)
	return h
}

// Snapshot returns a point-in-time copy of the histogram under the given
// metric name, suitable for appending to Snapshot.Histograms.
func (h *Histogram) Snapshot(name, help string) HistogramSnapshot {
	s := newHistogramSnapshot(name, help, h.bounds)
	h.addTo(&s)
	return s
}

func (h *Histogram) init(bounds []int64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	h.bounds = bounds
	h.counts = make([]atomic.Int64, len(bounds)+1)
}

// Observe records one value. Negative values (a clock anomaly) clamp to
// zero so they cannot drive the sum negative.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// addTo accumulates this histogram's buckets into s, which must have been
// built over the same bounds.
func (h *Histogram) addTo(s *HistogramSnapshot) {
	if len(s.Counts) != len(h.counts) {
		panic(fmt.Sprintf("telemetry: merging histogram with %d buckets into snapshot with %d", len(h.counts), len(s.Counts)))
	}
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HistogramSnapshot is a merged, point-in-time copy of a histogram.
// Count is always the sum of Counts, computed rather than read from a
// separate counter, so a snapshot taken during concurrent observation is
// internally consistent (Prometheus requires the +Inf cumulative bucket
// to equal _count). Sum is read separately and may lag the buckets by the
// few observations in flight.
type HistogramSnapshot struct {
	Name   string  `json:"-"`
	Help   string  `json:"-"`
	Bounds []int64 `json:"bounds"`
	// Counts[i] is the (non-cumulative) count of bucket i; the last
	// element is the +Inf bucket.
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
}

func newHistogramSnapshot(name, help string, bounds []int64) HistogramSnapshot {
	return HistogramSnapshot{Name: name, Help: help, Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

// Count returns the total observation count of the snapshot.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

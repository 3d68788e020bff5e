package main

import (
	"runtime"
	"syscall"
	"time"

	"dtt/internal/core"
	"dtt/internal/telemetry"
)

// coreCounts is the part of a runtime's public counters the per-layer
// metrics are made of, read from outside through Stats, QueueCounters,
// ShardCounters and TelemetrySnapshot.
type coreCounts struct {
	st       core.Stats
	enq, deq int64 // queue.Counters (Overflowed equals st.Overflowed)
	peak     int
	shardEnq []int64
	run      telemetry.HistogramSnapshot // dtt_run_duration_ns
	dispatch telemetry.HistogramSnapshot // dtt_trigger_dispatch_latency_ns
}

func readCore(rt *core.Runtime) coreCounts {
	c := coreCounts{st: rt.Stats()}
	for _, sc := range rt.ShardCounters() {
		c.enq += sc.Enqueued
		c.deq += sc.Dequeued
		if sc.Peak > c.peak {
			c.peak = sc.Peak
		}
		c.shardEnq = append(c.shardEnq, sc.Enqueued)
	}
	if rt.Config().Telemetry {
		for _, h := range rt.TelemetrySnapshot().Histograms {
			switch h.Name {
			case "dtt_run_duration_ns":
				c.run = h
			case "dtt_trigger_dispatch_latency_ns":
				c.dispatch = h
			}
		}
	}
	return c
}

// addHist returns a+b bucket by bucket; either may be the zero snapshot.
func addHist(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if len(a.Counts) == 0 {
		return b
	}
	if len(b.Counts) == 0 {
		return a
	}
	sum := telemetry.HistogramSnapshot{Name: a.Name, Bounds: a.Bounds, Counts: make([]int64, len(a.Counts)), Sum: a.Sum + b.Sum}
	for i := range sum.Counts {
		sum.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return sum
}

// addDelta folds after-before into c. A runtime made inside the timed
// region passes the zero coreCounts as before. Peak is a lifetime maximum
// and is kept as one.
func (c *coreCounts) addDelta(before, after coreCounts) {
	a, b := after.st, before.st
	c.st.TStores += a.TStores - b.TStores
	c.st.Silent += a.Silent - b.Silent
	c.st.Fired += a.Fired - b.Fired
	c.st.Enqueued += a.Enqueued - b.Enqueued
	c.st.Squashed += a.Squashed - b.Squashed
	c.st.Overflowed += a.Overflowed - b.Overflowed
	c.st.InlineRuns += a.InlineRuns - b.InlineRuns
	c.st.Executed += a.Executed - b.Executed
	c.st.FailedRuns += a.FailedRuns - b.FailedRuns
	c.st.Waits += a.Waits - b.Waits
	c.st.TUpdates += a.TUpdates - b.TUpdates
	c.st.Merges += a.Merges - b.Merges
	c.st.MergedUpdates += a.MergedUpdates - b.MergedUpdates
	c.st.SilentMerges += a.SilentMerges - b.SilentMerges
	c.enq += after.enq - before.enq
	c.deq += after.deq - before.deq
	if after.peak > c.peak {
		c.peak = after.peak
	}
	for i, e := range after.shardEnq {
		if i >= len(c.shardEnq) {
			c.shardEnq = append(c.shardEnq, 0)
		}
		c.shardEnq[i] += e
		if i < len(before.shardEnq) {
			c.shardEnq[i] -= before.shardEnq[i]
		}
	}
	c.run = addHist(c.run, after.run.Sub(before.run))
	c.dispatch = addHist(c.dispatch, after.dispatch.Sub(before.dispatch))
}

// values is the trace file's form of the counters.
func (c coreCounts) values() map[string]int64 {
	return map[string]int64{
		"tstores": c.st.TStores, "silent": c.st.Silent, "fired": c.st.Fired, "enqueued": c.st.Enqueued,
		"squashed": c.st.Squashed, "overflowed": c.st.Overflowed, "inline_runs": c.st.InlineRuns,
		"executed": c.st.Executed, "failed_runs": c.st.FailedRuns, "waits": c.st.Waits,
		"tupdates": c.st.TUpdates, "merges": c.st.Merges, "merged_words": c.st.MergedUpdates,
		"silent_merges": c.st.SilentMerges, "dequeued": c.deq,
	}
}

// report writes the core, queue and mem-plane metrics into m, with work
// counts divided by units (passes, rounds or requests).
func (c coreCounts) report(m map[string]float64, units float64) {
	per := func(n int64) float64 { return ratio(float64(n), units) }
	st := c.st
	m["core.tstores"] = per(st.TStores)
	m["core.silent_ratio"] = st.SilentFraction()
	m["core.fired"] = per(st.Fired)
	m["core.squash_ratio"] = st.SquashFraction()
	m["core.overflow_ratio"] = ratio(float64(st.Overflowed), float64(st.Fired))
	m["core.inline_runs"] = per(st.InlineRuns)
	m["core.executed"] = per(st.Executed)
	m["core.failed_runs"] = float64(st.FailedRuns)
	m["core.waits"] = per(st.Waits)
	m["core.dispatch_p50_ns"] = c.dispatch.Quantile(0.5)
	m["core.dispatch_p99_ns"] = c.dispatch.Quantile(0.99)
	m["queue.enqueued"] = per(c.enq)
	m["queue.dequeued"] = per(c.deq)
	m["queue.overflowed"] = per(st.Overflowed)
	m["queue.peak_depth"] = float64(c.peak)
	var maxEnq, sumEnq int64
	for _, e := range c.shardEnq {
		sumEnq += e
		if e > maxEnq {
			maxEnq = e
		}
	}
	m["queue.shard_skew"] = ratio(float64(maxEnq)*float64(len(c.shardEnq)), float64(sumEnq))
	m["mem.tupdates"] = per(st.TUpdates)
	m["mem.merges"] = per(st.Merges)
	m["mem.merged_words"] = per(st.MergedUpdates)
	m["mem.silent_merge_ratio"] = ratio(float64(st.SilentMerges), float64(st.MergedUpdates))
}

// checkIdentity returns the conservation violations of a quiesced runtime.
func checkIdentity(who string, st core.Stats) []string {
	var bad []string
	if st.Fired != st.Enqueued+st.Squashed+st.Overflowed {
		bad = append(bad, who+": Fired != Enqueued + Squashed + Overflowed")
	}
	if st.FailedRuns != 0 {
		bad = append(bad, who+": FailedRuns != 0")
	}
	return bad
}

// heapCounts is the Go heap's side of the mem layer.
type heapCounts struct {
	mallocs, bytes uint64
	gcs            uint32
	inuse          uint64
}

func readHeap() heapCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounts{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, inuse: ms.HeapInuse}
}

// addDelta folds after-before into h; inuse keeps the latest reading.
func (h *heapCounts) addDelta(before, after heapCounts) {
	h.mallocs += after.mallocs - before.mallocs
	h.bytes += after.bytes - before.bytes
	h.gcs += after.gcs - before.gcs
	h.inuse = after.inuse
}

func (h heapCounts) report(m map[string]float64, ops float64) {
	m["mem.allocs_per_op"] = ratio(float64(h.mallocs), ops)
	m["mem.bytes_per_op"] = ratio(float64(h.bytes), ops)
	m["mem.heap_inuse_mb"] = float64(h.inuse) / (1 << 20)
	m["mem.gc_cycles"] = float64(h.gcs)
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

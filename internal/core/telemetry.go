package core

import (
	"dtt/internal/queue"
	"dtt/internal/telemetry"
)

// TelemetrySnapshot assembles the exporter's view of the runtime. It
// implements telemetry.Source, so a Runtime can be handed straight to
// telemetry.Serve/Handler. The counters come from Stats, which sums under
// every shard lock, so the documented identity
//
//	dtt_fired_total = dtt_enqueued_total + dtt_squashed_total + dtt_overflowed_total
//
// holds on every scrape, not just at quiescence. The per-shard samples are
// read one shard lock at a time: each sample is internally consistent, and
// cross-shard skew only affects the per-shard breakdown, never the totals.
//
// It is safe to call with Telemetry off (histograms are simply absent), but
// the exporter only exists when Config.MetricsAddr is set, which implies
// Telemetry.
func (rt *Runtime) TelemetrySnapshot() telemetry.Snapshot {
	s := rt.Stats()
	snap := telemetry.Snapshot{
		Counters: []telemetry.Metric{
			{Name: "dtt_tstores_total", Help: "Triggering stores issued.", Value: s.TStores},
			{Name: "dtt_silent_total", Help: "Triggering stores that wrote an unchanged value (redundant computation skipped).", Value: s.Silent},
			{Name: "dtt_tupdates_total", Help: "Commutative update ops folded into privatized deltas.", Value: s.TUpdates},
			{Name: "dtt_merges_total", Help: "Update-plane merges performed.", Value: s.Merges},
			{Name: "dtt_merged_updates_total", Help: "Words applied to memory by merges.", Value: s.MergedUpdates},
			{Name: "dtt_silent_merges_total", Help: "Merged words whose net effect was the value already in memory (redundant computation skipped at merge).", Value: s.SilentMerges},
			{Name: "dtt_fired_total", Help: "Value-changing tstores per attached thread.", Value: s.Fired},
			{Name: "dtt_enqueued_total", Help: "New thread-queue entries.", Value: s.Enqueued},
			{Name: "dtt_squashed_total", Help: "Triggers absorbed by duplicate squashing.", Value: s.Squashed},
			{Name: "dtt_overflowed_total", Help: "Triggers that found the queue full.", Value: s.Overflowed},
			{Name: "dtt_dropped_total", Help: "Overflowed triggers whose thread was cancelled before their inline run.", Value: s.Dropped},
			{Name: "dtt_inline_runs_total", Help: "Overflowed triggers executed inline in the main thread.", Value: s.InlineRuns},
			{Name: "dtt_executed_total", Help: "Queue-dispatched support instances completed.", Value: s.Executed},
			{Name: "dtt_failed_runs_total", Help: "Support-thread bodies that panicked.", Value: s.FailedRuns},
			{Name: "dtt_waits_total", Help: "Wait (twait) operations.", Value: s.Waits},
			{Name: "dtt_barriers_total", Help: "Barrier (tbarrier) operations.", Value: s.Barriers},
			{Name: "dtt_cancels_total", Help: "Cancel (tcancel) operations.", Value: s.Cancels},
		},
		Gauges: []telemetry.Metric{
			{Name: "dtt_shards", Help: "Dispatch shards.", Value: int64(len(rt.shards))},
			{Name: "dtt_threads", Help: "Registered support threads.", Value: int64(len(rt.threadsSnap()))},
		},
		Shards: make([]telemetry.ShardSample, len(rt.shards)),
	}
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		c := sh.tq.Counters()
		depth := sh.tq.Len()
		sh.mu.Unlock()
		snap.Shards[i] = shardSampleFrom(c, depth)
	}
	snap.Histograms = rt.obs.histograms()
	return snap
}

func shardSampleFrom(c queue.Counters, depth int) telemetry.ShardSample {
	return telemetry.ShardSample{
		Enqueued:    c.Enqueued,
		Squashed:    c.Squashed,
		Overflowed:  c.Overflowed,
		Dequeued:    c.Dequeued,
		SquashedOut: c.SquashedOut,
		Depth:       depth,
		Peak:        c.Peak,
	}
}

package core

import "dtt/internal/telemetry"

// TelemetrySnapshot assembles the exporter's view of the runtime. It
// implements telemetry.Source, so a Runtime can be handed straight to
// telemetry.Serve/Handler. The counters come from Stats, which reads them
// under the dispatch lock, so the documented identity
//
//	dtt_fired_total = dtt_enqueued_total + dtt_squashed_total + dtt_overflowed_total
//
// holds on every scrape, not just at quiescence.
//
// It is safe to call with Telemetry off (histograms are simply absent), but
// the exporter only exists when Config.MetricsAddr is set, which implies
// Telemetry.
func (rt *Runtime) TelemetrySnapshot() telemetry.Snapshot {
	s := rt.Stats()
	rt.d.mu.Lock()
	depth := rt.d.tq.Len()
	rt.d.mu.Unlock()
	return telemetry.Snapshot{
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
			{Name: "dtt_threads", Help: "Registered support threads.", Value: int64(len(rt.threadsSnap()))},
			{Name: "dtt_queue_len", Help: "Pending entries in the thread queue.", Value: int64(depth)},
		},
		Histograms: rt.obs.histograms(),
	}
}

package sim

import (
	"bulkpreload/internal/engine"
	"bulkpreload/internal/obs"
)

// AggregateMetrics merges the final registry snapshots of many shard
// results into one fleet-wide snapshot: counters and histogram buckets
// add, gauges add (summed occupancy across shards). Each shard's
// registry is goroutine-local while running (see the obs package
// ownership model); the immutable snapshots in engine.Result are what
// crosses the goroutine boundary, so this is safe to call after any
// RunUnits-driven study. Results without metrics are skipped; ok
// reports whether any shard contributed.
func AggregateMetrics(results ...engine.Result) (agg obs.Snapshot, ok bool) {
	for _, r := range results {
		if r.Metrics == nil {
			continue
		}
		if !ok {
			ok = true
			// Deep-copy the first shard (Merge adds into bucket slices in
			// place, which must never mutate a shard's own snapshot).
			agg = obs.Snapshot{Seq: r.Metrics.Seq, Values: append([]obs.Value(nil), r.Metrics.Values...)}
			for i := range agg.Values {
				v := &agg.Values[i]
				v.Bounds = append([]int64(nil), v.Bounds...)
				v.Buckets = append([]int64(nil), v.Buckets...)
			}
			continue
		}
		agg.Merge(*r.Metrics)
	}
	return agg, ok
}

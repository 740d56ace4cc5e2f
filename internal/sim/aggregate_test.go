package sim

import (
	"context"
	"testing"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/workload"
)

// shardProfiles returns n small, distinct capacity-bound workloads so
// each shard produces different (non-zero) counter values.
func shardProfiles(n int) []workload.Profile {
	ps := make([]workload.Profile, n)
	for i := range ps {
		ps[i] = workload.Profile{
			Name: "agg-shard", UniqueBranches: 12_000, TakenFraction: 0.6,
			Instructions: 120_000, HotFraction: 0.15, WindowFunctions: 48,
			CallsPerTransaction: 6, Seed: int64(100 + i),
		}
	}
	return ps
}

func TestAggregateMetrics(t *testing.T) {
	cfgs := Table3()
	profiles := shardProfiles(3)
	units := make([]Unit, len(profiles))
	for i, p := range profiles {
		units[i] = ProfileUnit(p, cfgs[ConfigBTB2], quickParams(), ConfigBTB2)
	}
	results, err := RunUnits(context.Background(), 0, units)
	if err != nil {
		t.Fatal(err)
	}

	var wantPred, wantBurstCount int64
	wantBuckets := []int64{}
	for i, r := range results {
		if r.Metrics == nil {
			t.Fatalf("shard %d has no final metrics snapshot", i)
		}
		wantPred += r.Metrics.Counter("hier_predictions_total")
		v, ok := r.Metrics.Get("hier_transfer_burst_entries")
		if !ok {
			t.Fatalf("shard %d missing transfer-burst histogram", i)
		}
		wantBurstCount += v.Count
		if len(wantBuckets) == 0 {
			wantBuckets = make([]int64, len(v.Buckets))
		}
		for k := range v.Buckets {
			wantBuckets[k] += v.Buckets[k]
		}
	}
	if wantPred == 0 {
		t.Fatal("shards made no predictions; workload too small")
	}

	// Record shard 0's state so we can prove aggregation never mutates
	// the inputs (Merge adds into the aggregate's own deep copies).
	before, _ := results[0].Metrics.Get("hier_transfer_burst_entries")
	beforeBuckets := append([]int64(nil), before.Buckets...)
	beforePred := results[0].Metrics.Counter("hier_predictions_total")

	agg, ok := AggregateMetrics(results...)
	if !ok {
		t.Fatal("AggregateMetrics found no snapshots")
	}
	if got := agg.Counter("hier_predictions_total"); got != wantPred {
		t.Errorf("merged predictions = %d, want sum of shards %d", got, wantPred)
	}
	av, _ := agg.Get("hier_transfer_burst_entries")
	if av.Count != wantBurstCount {
		t.Errorf("merged burst histogram count = %d, want %d", av.Count, wantBurstCount)
	}
	for k := range wantBuckets {
		if av.Buckets[k] != wantBuckets[k] {
			t.Errorf("merged burst bucket %d = %d, want %d", k, av.Buckets[k], wantBuckets[k])
		}
	}

	if got := results[0].Metrics.Counter("hier_predictions_total"); got != beforePred {
		t.Errorf("aggregation mutated shard 0 predictions: %d -> %d", beforePred, got)
	}
	after, _ := results[0].Metrics.Get("hier_transfer_burst_entries")
	for k := range beforeBuckets {
		if after.Buckets[k] != beforeBuckets[k] {
			t.Errorf("aggregation mutated shard 0 bucket %d: %d -> %d",
				k, beforeBuckets[k], after.Buckets[k])
		}
	}

	// No shards with metrics -> not ok.
	if _, ok := AggregateMetrics(engine.Result{}); ok {
		t.Error("AggregateMetrics reported ok with no snapshots")
	}
}

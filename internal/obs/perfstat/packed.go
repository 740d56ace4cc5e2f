package perfstat

import (
	"time"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/ctb"
	"bulkpreload/internal/history"
	"bulkpreload/internal/pht"
	"bulkpreload/internal/zaddr"
)

// The packed_tables scenario: per-structure microbenchmarks of the
// predictor tables' packed structure-of-arrays storage. Each table runs
// a lookup (and for the BTB, insert/evict) loop over a warm table, so
// every trajectory entry records the absolute rates the CI gate pins.

// packedBenchEntry synthesizes the i-th benchmark branch: addresses
// stride 40 bytes so rows fill unevenly and inserts evict, mirroring
// the internal/btb benchmarks.
func packedBenchEntry(i int) btb.Entry {
	a := zaddr.Addr(0x10_0000 + i*40)
	return btb.Entry{Addr: a, Target: a + 64, Dir: 2, UsePHT: i%3 == 0, Length: uint8(i % 12)}
}

// newPackedBenchBTB builds a fully warmed BTB1-geometry table.
func newPackedBenchBTB() *btb.Table {
	t := btb.New(btb.BTB1Config)
	for i := 0; i < btb.BTB1Config.Capacity(); i++ {
		t.Insert(packedBenchEntry(i))
	}
	return t
}

// opsPerSec times ops calls of f and returns the call rate.
func opsPerSec(ops int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < ops; i++ {
		f(i)
	}
	return float64(ops) / time.Since(start).Seconds()
}

// runPackedTables measures every per-structure microbenchmark. ops is
// the timed iteration count per measurement.
func runPackedTables(ops int) (ScenarioResult, error) {
	metrics := make(map[string]float64, 4)

	// BTB lookup and insert.
	warm := newPackedBenchBTB()
	var hits []btb.Hit
	metrics[MetricBTBPackedLookup] = opsPerSec(ops, func(i int) {
		hits = warm.LookupLine(zaddr.Addr(0x10_0000+(i%4096)*32), hits[:0])
	})
	fresh := newPackedBenchBTB() // warm, so inserts evict
	metrics[MetricBTBPackedInsert] = opsPerSec(ops, func(i int) {
		fresh.Insert(packedBenchEntry(i))
	})

	// PHT and CTB lookups over a warmed table and a recorded global
	// history.
	var h history.History
	for i := 0; i < 64; i++ {
		h.RecordPrediction(zaddr.Addr(0x2000+i*6), i%2 == 0)
	}
	pt := pht.New(pht.DefaultEntries)
	ct := ctb.New(ctb.DefaultEntries)
	for i := 0; i < 4096; i++ {
		a := zaddr.Addr(0x4000 + i*12)
		pt.Update(&h, a, i%2 == 0)
		ct.Update(&h, a, a+zaddr.Addr(i))
	}
	metrics[MetricPHTPackedLookup] = opsPerSec(ops, func(i int) {
		pt.Lookup(&h, zaddr.Addr(0x4000+(i%4096)*12))
	})
	metrics[MetricCTBPackedLookup] = opsPerSec(ops, func(i int) {
		ct.Lookup(&h, zaddr.Addr(0x4000+(i%4096)*12))
	})

	return ScenarioResult{
		Name:    ScenarioPackedTables,
		Records: int64(4 * ops),
		Metrics: metrics,
	}, nil
}

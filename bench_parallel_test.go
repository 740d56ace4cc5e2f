package bulkpreload_test

// Parallel-pipeline engineering benchmarks: the BTB2 capacity sweep run
// through the serial oracle and through the work-stealing batched
// scheduler, plus the zero-alloc batch decoder in isolation. The
// flag-gated TestEmitParallelBenchJSON runs the same measurements
// through the perfstat trajectory subsystem and appends one entry to
// the committed benchmark history:
//
//	go test -run TestEmitParallelBenchJSON -parallel-bench-out BENCH_parallel.json
//
// recording records/sec for both paths, the parallel speedup, decoder
// throughput and steady-state allocations, and the scheduler's
// work-stealing accounting — with the differential check folded in so a
// "fast" entry can never come from a diverged pipeline. The CI gate
// (`zsim -perfstat gate`) compares fresh runs against this history.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"testing"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/core"
	"bulkpreload/internal/ctb"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/history"
	"bulkpreload/internal/obs/perfstat"
	"bulkpreload/internal/pht"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

var (
	parallelBenchOut = flag.String("parallel-bench-out", "",
		"append a perfstat trajectory entry to this file (empty = skip)")
	parallelBenchRuns = flag.Int("parallel-bench-runs", 1,
		"median-of-N repetitions for -parallel-bench-out")
	parallelBenchLabel = flag.String("parallel-bench-label", "",
		"label recorded in the -parallel-bench-out entry")
)

// capacitySweepUnits is the workload the parallel pipeline exists for:
// a Figure 5-style BTB2 capacity sweep, expressed as independent
// (config, trace) units. Base runs appear once per profile, exactly as
// sim.SweepBTB2Size dedups them.
func capacitySweepUnits() []sim.Unit {
	params := benchParams()
	rowCounts := []int{512, 1024, 2048, 4096, 8192}
	var units []sim.Unit
	for _, p := range benchSweepProfiles() {
		units = append(units, sim.ProfileUnit(p, core.OneLevelConfig(), params, "base"))
		for _, rows := range rowCounts {
			cfg := core.DefaultConfig()
			cfg.BTB2 = sim.BTB2Geometry(rows)
			units = append(units, sim.ProfileUnit(p, cfg, params, fmt.Sprintf("btb2-%drows", rows)))
		}
	}
	return units
}

func totalInstructions(res []engine.Result) int64 {
	var n int64
	for i := range res {
		n += res[i].Instructions
	}
	return n
}

// BenchmarkCapacitySweepSerialOracle is the single-threaded
// record-at-a-time reference path over the capacity sweep.
func BenchmarkCapacitySweepSerialOracle(b *testing.B) {
	units := capacitySweepUnits()
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunUnitsSerial(units)
		if err != nil {
			b.Fatal(err)
		}
		insts = totalInstructions(res)
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkCapacitySweepParallel is the same sweep through the
// work-stealing batched pipeline at GOMAXPROCS workers.
func BenchmarkCapacitySweepParallel(b *testing.B) {
	units := capacitySweepUnits()
	ctx := context.Background()
	b.ResetTimer()
	var insts, steals int64
	for i := 0; i < b.N; i++ {
		res, stats, err := sim.RunUnitsTraced(ctx, 0, units, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts = totalInstructions(res)
		steals += stats.Steals
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
}

// encodeBenchTrace serializes a generated workload to the ZBPT wire
// format in memory, returning the encoded bytes.
func encodeBenchTrace(tb testing.TB, insts int) []byte {
	tb.Helper()
	prof, err := workload.ByName("zos-daytrader-dbserv", insts)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Write(&buf, workload.New(prof)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkBatchDecode measures the bulk decoder's steady-state
// throughput and allocations per batch over an in-memory ZBPT stream.
// Each op is one full batch; the decoder rewind at EOF happens with the
// timer (and alloc accounting) stopped, so the reported allocs/op is
// the hot-path figure the zero-alloc gate pins at 0.
func BenchmarkBatchDecode(b *testing.B) {
	data := encodeBenchTrace(b, 200_000)
	br := bytes.NewReader(data)
	dec, err := trace.NewBatchDecoder(br, trace.DefaultBatchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	batch := trace.NewBatch(trace.DefaultBatchCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	var records int64
	for i := 0; i < b.N; i++ {
		err := dec.Next(&batch)
		if err == io.EOF {
			b.StopTimer()
			if _, err := br.Seek(0, io.SeekStart); err != nil {
				b.Fatal(err)
			}
			if dec, err = trace.NewBatchDecoder(br, trace.DefaultBatchCapacity); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			err = dec.Next(&batch)
		}
		if err != nil {
			b.Fatal(err)
		}
		records += int64(len(batch.Ins))
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// TestEmitParallelBenchJSON measures the perfstat scenarios — the same
// workload the benchmarks above run — and appends one trajectory entry
// to -parallel-bench-out (creating the file when missing), exactly like
// `zsim -perfstat append`. Skipped unless the flag is set, so the
// ordinary test run stays fast and file-free. The entry is refused if
// the differential cross-check or the decoder's zero-alloc invariant
// fails: a "fast" baseline can never come from a diverged pipeline.
func TestEmitParallelBenchJSON(t *testing.T) {
	if *parallelBenchOut == "" {
		t.Skip("pass -parallel-bench-out=BENCH_parallel.json to append a trajectory entry")
	}
	entry, err := perfstat.Run(context.Background(), perfstat.Options{
		Runs:  *parallelBenchRuns,
		Label: *parallelBenchLabel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range perfstat.Compare(nil, entry, 0) {
		t.Error(r)
	}
	if t.Failed() {
		t.Fatal("refusing to record a diverged or allocating entry")
	}
	traj, err := perfstat.LoadTrajectory(*parallelBenchOut)
	if err != nil {
		t.Fatal(err)
	}
	traj.Append(entry)
	if err := traj.Write(*parallelBenchOut); err != nil {
		t.Fatal(err)
	}
	sweep := entry.Scenario(perfstat.ScenarioCapacitySweep)
	decode := entry.Scenario(perfstat.ScenarioBatchDecode)
	t.Logf("appended entry %d to %s: %.0f records/s serial, %.0f records/s parallel (%.2fx, %d workers, %.0f steals), decode %.0f records/s at %.1f allocs/batch",
		len(traj.Entries), *parallelBenchOut,
		sweep.Metric(perfstat.MetricSerialRPS), sweep.Metric(perfstat.MetricParallelRPS),
		sweep.Metric(perfstat.MetricSpeedup), entry.Workers, sweep.Metric(perfstat.MetricSteals),
		decode.Metric(perfstat.MetricDecodeRPS), decode.Metric(perfstat.MetricDecodeAlloc))
}

// Per-structure predictor-table benchmarks: the same warm-table
// lookup/insert loops the perfstat packed_tables scenario times (same
// geometries — BTB1, default-size PHT/CTB — same stride, same warm
// fill), as `go test -bench` sub-benchmarks so the trajectory's table
// rates are reproducible outside the trajectory file.

func benchBTBEntry(i int) btb.Entry {
	a := zaddr.Addr(0x10_0000 + i*40)
	return btb.Entry{Addr: a, Target: a + 64, Dir: 2, UsePHT: i%3 == 0, Length: uint8(i % 12)}
}

// BenchmarkPredictorTables measures every predictor structure's hot
// paths.
func BenchmarkPredictorTables(b *testing.B) {
	b.Run("btb-lookup", func(b *testing.B) {
		t := btb.New(btb.BTB1Config)
		for i := 0; i < btb.BTB1Config.Capacity(); i++ {
			t.Insert(benchBTBEntry(i))
		}
		var hits []btb.Hit
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hits = t.LookupLine(zaddr.Addr(0x10_0000+(i%4096)*32), hits[:0])
		}
	})
	b.Run("btb-insert", func(b *testing.B) {
		t := btb.New(btb.BTB1Config)
		for i := 0; i < btb.BTB1Config.Capacity(); i++ {
			t.Insert(benchBTBEntry(i)) // warm, so the timed inserts evict
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Insert(benchBTBEntry(i))
		}
	})
	b.Run("pht-lookup", func(b *testing.B) {
		t := pht.New(pht.DefaultEntries)
		var h history.History
		for i := 0; i < 64; i++ {
			h.RecordPrediction(zaddr.Addr(0x2000+i*6), i%2 == 0)
		}
		for i := 0; i < 4096; i++ {
			t.Update(&h, zaddr.Addr(0x4000+i*12), i%2 == 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Lookup(&h, zaddr.Addr(0x4000+(i%4096)*12))
		}
	})
	b.Run("ctb-lookup", func(b *testing.B) {
		t := ctb.New(ctb.DefaultEntries)
		var h history.History
		for i := 0; i < 64; i++ {
			h.RecordPrediction(zaddr.Addr(0x2000+i*6), true)
		}
		for i := 0; i < 4096; i++ {
			a := zaddr.Addr(0x4000 + i*12)
			t.Update(&h, a, a+64)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Lookup(&h, zaddr.Addr(0x4000+(i%4096)*12))
		}
	})
}

// TestPerfstatMirrorsBenchmarks pins the contract the trajectory rests
// on: the perfstat capacity-sweep scenario must measure exactly the
// unit set BenchmarkCapacitySweep* measures, label for label —
// otherwise committed entries and `go test -bench` stop describing the
// same workload.
func TestPerfstatMirrorsBenchmarks(t *testing.T) {
	want := capacitySweepUnits()
	got := perfstat.SweepUnitLabels()
	if len(got) != len(want) {
		t.Fatalf("perfstat sweep has %d units, benchmarks have %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].Label {
			t.Errorf("unit %d: perfstat %q, benchmark %q", i, got[i], want[i].Label)
		}
	}
}

package perfstat

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// The scenarios mirror the repo's parallel benchmarks
// (bench_parallel_test.go) exactly — same sweep geometry, same warmup,
// same decoder stream — so trajectory entries, `go test -bench` output,
// and the CI gate all describe one workload.

// Scenario names recorded in trajectory entries.
const (
	ScenarioCapacitySweep = "capacity_sweep"
	ScenarioBatchDecode   = "batch_decode"
	ScenarioPackedTables  = "packed_tables"
)

// ScenarioInfo describes one named scenario for listings.
type ScenarioInfo struct {
	Name        string
	Description string
}

// Scenarios lists every scenario the runner measures, in run order.
func Scenarios() []ScenarioInfo {
	return []ScenarioInfo{
		{ScenarioCapacitySweep,
			"Figure 5-style BTB2 capacity sweep (2 profiles x base+5 row counts) " +
				"through the serial oracle and the work-stealing batched scheduler, " +
				"with a differential cross-check"},
		{ScenarioBatchDecode,
			"zero-alloc ZBPT batch decoder over an in-memory stream: " +
				"throughput plus steady-state allocations per batch"},
		{ScenarioPackedTables,
			"per-structure predictor-table microbenchmarks: BTB lookup/insert " +
				"and PHT/CTB lookup rates of the packed structure-of-arrays " +
				"tables, over warm tables"},
	}
}

// Options configures a perfstat run.
type Options struct {
	Workers int    // scheduler workers; 0 means GOMAXPROCS
	Runs    int    // median-of-N repetitions; <= 1 means a single run
	Label   string // free-form tag recorded in the entry, e.g. "PR 6"

	// Instruction counts per scenario. Zero selects the benchmark-suite
	// defaults; tests shrink them to keep the suite fast.
	SweepInstructions  int // per profile trace length (default 150_000)
	DecodeInstructions int // decoder throughput stream (default 200_000)
	PackedOps          int // timed ops per packed-table measurement (default 1_000_000)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Runs < 1 {
		out.Runs = 1
	}
	if out.SweepInstructions <= 0 {
		out.SweepInstructions = 150_000
	}
	if out.DecodeInstructions <= 0 {
		out.DecodeInstructions = 200_000
	}
	if out.PackedOps <= 0 {
		out.PackedOps = 1_000_000
	}
	return out
}

// Run measures every scenario opt.Runs times and returns one trajectory
// entry with per-metric medians (correctness metrics take the maximum
// instead: a mismatch in any run must fail the gate, not be voted away
// by clean reruns).
func Run(ctx context.Context, opt Options) (Entry, error) {
	o := opt.withDefaults()
	runs := make([][]ScenarioResult, 0, o.Runs)
	for i := 0; i < o.Runs; i++ {
		sweep, err := runCapacitySweep(ctx, o.Workers, o.SweepInstructions)
		if err != nil {
			return Entry{}, fmt.Errorf("perfstat: %s run %d: %w", ScenarioCapacitySweep, i+1, err)
		}
		decode, err := runBatchDecode(o.DecodeInstructions)
		if err != nil {
			return Entry{}, fmt.Errorf("perfstat: %s run %d: %w", ScenarioBatchDecode, i+1, err)
		}
		packed, err := runPackedTables(o.PackedOps)
		if err != nil {
			return Entry{}, fmt.Errorf("perfstat: %s run %d: %w", ScenarioPackedTables, i+1, err)
		}
		runs = append(runs, []ScenarioResult{sweep, decode, packed})
	}
	entry := Entry{
		Schema:      SchemaVersion,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Label:       o.Label,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     o.Workers,
		Runs:        o.Runs,
	}
	for s := range runs[0] {
		combined := runs[0][s]
		combined.Metrics = make(map[string]float64, len(runs[0][s].Metrics))
		for name := range runs[0][s].Metrics {
			samples := make([]float64, len(runs))
			for r := range runs {
				samples[r] = runs[r][s].Metrics[name]
			}
			if isZeroMetric(name) {
				combined.Metrics[name] = maxOf(samples)
			} else {
				combined.Metrics[name] = median(samples)
			}
		}
		entry.Scenarios = append(entry.Scenarios, combined)
	}
	return entry, nil
}

func isZeroMetric(name string) bool {
	for _, m := range zeroMetrics {
		if m == name {
			return true
		}
	}
	return false
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort: runs counts are tiny
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// SweepUnitLabels exposes the capacity-sweep unit labels at benchmark
// scale so the repo's benchmark suite can pin, in a test, that perfstat
// and `go test -bench` measure the same workload.
func SweepUnitLabels() []string {
	units := sweepUnits(150_000)
	labels := make([]string, len(units))
	for i := range units {
		labels[i] = units[i].Label
	}
	return labels
}

// sweepUnits is the capacity-sweep workload, identical to
// capacitySweepUnits in bench_parallel_test.go: two Table 4 profiles,
// each at the one-level base config plus five BTB2 row counts.
func sweepUnits(insts int) []sim.Unit {
	params := engine.DefaultParams()
	params.WarmupInstructions = 50_000
	if params.WarmupInstructions >= int64(insts) {
		params.WarmupInstructions = int64(insts) / 3
	}
	all := workload.Table4Profiles(insts)
	profiles := []workload.Profile{all[0], all[10]}
	rowCounts := []int{512, 1024, 2048, 4096, 8192}
	var units []sim.Unit
	for _, p := range profiles {
		units = append(units, sim.ProfileUnit(p, core.OneLevelConfig(), params, "base"))
		for _, rows := range rowCounts {
			cfg := core.DefaultConfig()
			cfg.BTB2 = sim.BTB2Geometry(rows)
			units = append(units, sim.ProfileUnit(p, cfg, params, fmt.Sprintf("btb2-%drows", rows)))
		}
	}
	return units
}

// runCapacitySweep times the sweep through the serial oracle and the
// parallel scheduler, cross-checking the two result sets record for
// record. Wall-clock timing here is measurement, not simulation: span
// and perfstat data never reach engine results.
func runCapacitySweep(ctx context.Context, workers, insts int) (ScenarioResult, error) {
	units := sweepUnits(insts)

	start := time.Now()
	serial, err := sim.RunUnitsSerial(units)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("serial oracle: %w", err)
	}
	serialSec := time.Since(start).Seconds()

	start = time.Now()
	parallel, stats, err := sim.RunUnitsTraced(ctx, workers, units, nil)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("parallel pipeline: %w", err)
	}
	parallelSec := time.Since(start).Seconds()

	mismatches := 0
	for i := range units {
		mismatches += len(sim.DiffResults(units[i].Label, serial[i], parallel[i]))
	}
	var records int64
	for i := range serial {
		records += serial[i].Instructions
	}
	return ScenarioResult{
		Name:    ScenarioCapacitySweep,
		Units:   len(units),
		Records: records,
		Metrics: map[string]float64{
			MetricSerialSec:   serialSec,
			MetricParallelSec: parallelSec,
			MetricSerialRPS:   float64(records) / serialSec,
			MetricParallelRPS: float64(records) / parallelSec,
			MetricSpeedup:     serialSec / parallelSec,
			MetricSteals:      float64(stats.Steals),
			MetricMismatches:  float64(mismatches),
		},
	}, nil
}

// runBatchDecode measures the bulk decoder alone: full-stream
// throughput over an in-memory ZBPT trace, then steady-state
// allocations per batch on a stream long enough that the measured calls
// never hit EOF (the rewind path allocates by design).
func runBatchDecode(insts int) (ScenarioResult, error) {
	data, err := encodeTrace(insts)
	if err != nil {
		return ScenarioResult{}, err
	}
	// Several full passes over the same stream: one pass is only a few
	// milliseconds, too short for a stable throughput figure, and
	// decoding identical bytes again is the identical workload.
	const passes = 5
	batch := trace.NewBatch(trace.DefaultBatchCapacity)
	var decoded int64
	start := time.Now()
	for p := 0; p < passes; p++ {
		dec, err := trace.NewBatchDecoder(bytes.NewReader(data), trace.DefaultBatchCapacity)
		if err != nil {
			return ScenarioResult{}, err
		}
		for {
			err := dec.Next(&batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				return ScenarioResult{}, fmt.Errorf("decode: %w", err)
			}
			decoded += int64(len(batch.Ins))
		}
	}
	decodeSec := time.Since(start).Seconds()

	const allocRuns = 20
	const allocCap = 64
	allocData, err := encodeTrace(4 * allocRuns * allocCap)
	if err != nil {
		return ScenarioResult{}, err
	}
	adec, err := trace.NewBatchDecoder(bytes.NewReader(allocData), allocCap)
	if err != nil {
		return ScenarioResult{}, err
	}
	abatch := trace.NewBatch(allocCap)
	allocs, err := allocsPerRun(allocRuns, func() error { return adec.Next(&abatch) })
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("decode alloc pass: %w", err)
	}

	return ScenarioResult{
		Name:    ScenarioBatchDecode,
		Records: decoded,
		Metrics: map[string]float64{
			MetricDecodeRPS:   float64(decoded) / decodeSec,
			MetricDecodeAlloc: allocs,
		},
	}, nil
}

// encodeTrace serializes a generated workload to the ZBPT wire format
// in memory (the same stream bench_parallel_test.go decodes).
func encodeTrace(insts int) ([]byte, error) {
	prof, err := workload.ByName("zos-daytrader-dbserv", insts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := trace.Write(&buf, workload.New(prof)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// allocsPerRun is testing.AllocsPerRun for non-test code: one warmup
// call, then runs timed calls on a single P with mallocs counted via
// runtime.ReadMemStats.
func allocsPerRun(runs int, f func() error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := f(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), nil
}

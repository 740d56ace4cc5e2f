package perfstat

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func sampleEntry(rps float64) Entry {
	return Entry{
		Schema:     SchemaVersion,
		GOMAXPROCS: 8,
		Workers:    8,
		Runs:       1,
		Scenarios: []ScenarioResult{
			{
				Name: ScenarioCapacitySweep, Units: 12, Records: 1_000_000,
				Metrics: map[string]float64{
					MetricSerialRPS:   rps,
					MetricParallelRPS: 3 * rps,
					MetricSpeedup:     3.0,
					MetricSteals:      4,
					MetricMismatches:  0,
				},
			},
			{
				Name: ScenarioBatchDecode, Records: 200_000,
				Metrics: map[string]float64{
					MetricDecodeRPS:   10 * rps,
					MetricDecodeAlloc: 0,
				},
			},
		},
	}
}

// TestComparePasses checks a current run at or slightly below the
// baseline clears a 15% gate.
func TestComparePasses(t *testing.T) {
	base := sampleEntry(1_000_000)
	cur := sampleEntry(900_000) // 10% down, inside the 15% band
	if regs := Compare(&base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("gate failed on in-band run: %v", regs)
	}
	// Improvements never fail.
	if regs := Compare(&base, sampleEntry(2_000_000), 0.15); len(regs) != 0 {
		t.Fatalf("gate failed on improved run: %v", regs)
	}
}

// TestCompareFailsOnSlowdown checks the gate catches an artificially
// slowed run: every throughput metric 40% down must produce one
// regression per gated metric.
func TestCompareFailsOnSlowdown(t *testing.T) {
	base := sampleEntry(1_000_000)
	slow := sampleEntry(600_000)
	slow.Scenario(ScenarioCapacitySweep).Metrics[MetricSpeedup] = 1.1 // also degrade scaling
	regs := Compare(&base, slow, 0.15)
	if len(regs) != 4 {
		t.Fatalf("got %d regressions, want 4 (serial, parallel, speedup, decode): %v", len(regs), regs)
	}
	seen := map[string]bool{}
	for _, r := range regs {
		seen[r.Metric] = true
		if !strings.Contains(r.String(), "dropped") {
			t.Errorf("regression %v does not explain the drop", r)
		}
	}
	for _, m := range []string{MetricSerialRPS, MetricParallelRPS, MetricSpeedup, MetricDecodeRPS} {
		if !seen[m] {
			t.Errorf("no regression reported for %s", m)
		}
	}
}

// TestCompareZeroMetrics checks correctness metrics fail even with no
// baseline: a diverged pipeline or an allocating decoder is a bug, not
// a slowdown.
func TestCompareZeroMetrics(t *testing.T) {
	bad := sampleEntry(1_000_000)
	bad.Scenario(ScenarioCapacitySweep).Metrics[MetricMismatches] = 2
	bad.Scenario(ScenarioBatchDecode).Metrics[MetricDecodeAlloc] = 1.5
	regs := Compare(nil, bad, 0.15)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	for _, r := range regs {
		if r.Reason != "must be exactly zero" {
			t.Errorf("unexpected reason %q", r.Reason)
		}
	}
	// The same entry with clean correctness metrics passes without a
	// baseline: there is nothing to compare throughput against.
	if regs := Compare(nil, sampleEntry(1), 0.15); len(regs) != 0 {
		t.Fatalf("baseline-free gate failed a clean run: %v", regs)
	}
}

// TestBaselineSelection checks Baseline picks the most recent entry
// with matching GOMAXPROCS and refuses cross-host comparison.
func TestBaselineSelection(t *testing.T) {
	var tr Trajectory
	a := sampleEntry(1)
	a.GOMAXPROCS, a.Label = 4, "old-4"
	b := sampleEntry(2)
	b.GOMAXPROCS, b.Label = 8, "old-8"
	c := sampleEntry(3)
	c.GOMAXPROCS, c.Label = 4, "new-4"
	tr.Append(a)
	tr.Append(b)
	tr.Append(c)
	if got := tr.Baseline(4); got == nil || got.Label != "new-4" {
		t.Errorf("Baseline(4) = %+v, want the most recent 4-proc entry", got)
	}
	if got := tr.Baseline(8); got == nil || got.Label != "old-8" {
		t.Errorf("Baseline(8) = %+v, want the 8-proc entry", got)
	}
	if got := tr.Baseline(16); got != nil {
		t.Errorf("Baseline(16) = %+v, want nil for an unseen host shape", got)
	}
}

// TestTrajectoryRoundTrip checks Load/Append/Write, the missing-file
// bootstrap, and the newer-schema refusal.
func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_parallel.json")
	tr, err := LoadTrajectory(path)
	if err != nil {
		t.Fatalf("missing file must load as empty: %v", err)
	}
	if len(tr.Entries) != 0 {
		t.Fatalf("empty trajectory has %d entries", len(tr.Entries))
	}
	e := sampleEntry(1_000_000)
	e.Label = "seed"
	tr.Append(e)
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 1 || back.Entries[0].Label != "seed" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	s := back.Entries[0].Scenario(ScenarioCapacitySweep)
	if s == nil || s.Metric(MetricSerialRPS) != 1_000_000 {
		t.Fatalf("scenario metrics lost in round trip: %+v", s)
	}

	if err := os.WriteFile(path, []byte(`{"schema": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(path); err == nil {
		t.Fatal("newer schema must refuse to load")
	}
}

// TestMedianAndMax covers the per-metric aggregation rules.
func TestMedianAndMax(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median single = %v, want 7", got)
	}
	if got := maxOf([]float64{0, 2, 1}); got != 2 {
		t.Errorf("maxOf = %v, want 2", got)
	}
}

// TestRunSmoke runs the real scenarios at reduced scale and checks the
// entry is self-consistent: all metrics present, correctness metrics
// zero, medians of multiple runs recorded.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	entry, err := Run(context.Background(), Options{
		Workers:            2,
		Runs:               2,
		Label:              "smoke",
		SweepInstructions:  12_000,
		DecodeInstructions: 20_000,
		PackedOps:          20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if entry.Runs != 2 || entry.Workers != 2 || entry.Label != "smoke" {
		t.Errorf("entry header wrong: %+v", entry)
	}
	if entry.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", entry.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	sweep := entry.Scenario(ScenarioCapacitySweep)
	if sweep == nil {
		t.Fatal("no capacity_sweep scenario")
	}
	if sweep.Units != 12 {
		t.Errorf("sweep units = %d, want 12 (2 profiles x base+5 rows)", sweep.Units)
	}
	if sweep.Records <= 0 {
		t.Errorf("sweep records = %d, want > 0", sweep.Records)
	}
	for _, m := range []string{MetricSerialRPS, MetricParallelRPS, MetricSpeedup, MetricSerialSec, MetricParallelSec, MetricSteals, MetricMismatches} {
		if _, ok := sweep.Metrics[m]; !ok {
			t.Errorf("sweep missing metric %s", m)
		}
	}
	if sweep.Metric(MetricMismatches) != 0 {
		t.Errorf("differential mismatches = %v, want 0", sweep.Metric(MetricMismatches))
	}
	decode := entry.Scenario(ScenarioBatchDecode)
	if decode == nil {
		t.Fatal("no batch_decode scenario")
	}
	if decode.Metric(MetricDecodeRPS) <= 0 {
		t.Errorf("decode throughput = %v, want > 0", decode.Metric(MetricDecodeRPS))
	}
	if decode.Metric(MetricDecodeAlloc) != 0 {
		t.Errorf("decode allocs/batch = %v, want 0", decode.Metric(MetricDecodeAlloc))
	}
	packed := entry.Scenario(ScenarioPackedTables)
	if packed == nil {
		t.Fatal("no packed_tables scenario")
	}
	for _, m := range []string{
		MetricBTBPackedLookup, MetricBTBPackedInsert,
		MetricPHTPackedLookup, MetricCTBPackedLookup,
	} {
		if packed.Metric(m) <= 0 {
			t.Errorf("packed_tables metric %s = %v, want > 0", m, packed.Metric(m))
		}
	}
	// A fresh run gated against itself as baseline must pass.
	if regs := Compare(&entry, entry, 0.15); len(regs) != 0 {
		t.Errorf("self-comparison failed: %v", regs)
	}
}

// TestScenariosListed keeps the listing in sync with the runner.
func TestScenariosListed(t *testing.T) {
	infos := Scenarios()
	if len(infos) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(infos))
	}
	if infos[0].Name != ScenarioCapacitySweep || infos[1].Name != ScenarioBatchDecode ||
		infos[2].Name != ScenarioPackedTables {
		t.Errorf("scenario order wrong: %+v", infos)
	}
	for _, in := range infos {
		if in.Description == "" {
			t.Errorf("scenario %s has no description", in.Name)
		}
	}
}

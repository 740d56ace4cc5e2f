package sim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// The serial-oracle differential suite: every Table 4 workload, three
// seeds each, run through the single-threaded record-at-a-time oracle
// and through the work-stealing batched pipeline at worker counts 1, 2,
// and GOMAXPROCS, comparing full observability snapshots field by
// field. This is the gate that lets every optimization in the pipeline
// land: if batching or scheduling perturbs one counter anywhere in the
// hierarchy, this fails with the exact metric named.

// differentialUnits builds the gate's unit set: all 13 Table 4 profiles
// x three seeds under the full two-level configuration, with warmup and
// interval snapshots armed so the counter-triggered boundaries are part
// of what must match.
func differentialUnits(instructions int) []Unit {
	params := engine.DefaultParams()
	params.WarmupInstructions = 5_000
	params.SnapshotInterval = 7_500
	var units []Unit
	for _, p := range workload.Table4Profiles(instructions) {
		for s, seed := range []int64{p.Seed, p.Seed + 101, p.Seed + 9973} {
			pp := p
			pp.Seed = seed
			pp.Name = fmt.Sprintf("%s/seed%d", p.Name, s)
			units = append(units, ProfileUnit(pp, core.DefaultConfig(), params, ConfigBTB2))
		}
	}
	return units
}

// TestDifferentialGate is the headline equivalence proof: 39 units
// (13 workloads x 3 seeds), serial oracle vs parallel pipeline at three
// worker counts, bit-identical results demanded everywhere.
func TestDifferentialGate(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate in -short mode")
	}
	units := differentialUnits(30_000)
	serial, err := RunUnitsSerial(units)
	if err != nil {
		t.Fatalf("serial oracle failed: %v", err)
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			parallel, err := RunUnits(context.Background(), workers, units)
			if err != nil {
				t.Fatalf("parallel pipeline failed: %v", err)
			}
			mismatches := 0
			for i := range units {
				for _, d := range DiffResults(units[i].Label, serial[i], parallel[i]) {
					t.Error(d)
					mismatches++
					if mismatches > 20 {
						t.Fatal("too many mismatches; truncating report")
					}
				}
			}
		})
	}
}

// TestDifferentialGateUnderFaults holds the gate with soft-error
// injection armed: faults land per entry read, so the batched path must
// reproduce the oracle's strikes, recoveries and fault counters
// (Result.Fault) bit for bit under both protection models.
func TestDifferentialGateUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate in -short mode")
	}
	params := engine.DefaultParams()
	params.WarmupInstructions = 5_000
	params.SnapshotInterval = 7_500
	var units []Unit
	for _, p := range workload.Table4Profiles(30_000)[:4] {
		for _, prot := range []fault.Protection{fault.Unprotected, fault.Parity} {
			pp := params
			pp.Fault = fault.ZEC12Rates(uint64(p.Seed), 1000, prot)
			u := ProfileUnit(p, core.DefaultConfig(), pp, ConfigBTB2)
			u.Label += "/" + prot.String()
			units = append(units, u)
		}
	}
	serial, err := RunUnitsSerial(units)
	if err != nil {
		t.Fatalf("serial oracle failed: %v", err)
	}
	for i := range units {
		if serial[i].Fault.Injected == 0 {
			t.Fatalf("%s: no faults injected; the gate would prove nothing", units[i].Label)
		}
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			parallel, err := RunUnits(context.Background(), workers, units)
			if err != nil {
				t.Fatalf("parallel pipeline failed: %v", err)
			}
			for i := range units {
				for _, d := range DiffResults(units[i].Label, serial[i], parallel[i]) {
					t.Error(d)
				}
			}
		})
	}
}

// TestVerifyDifferential exercises the packaged gate entry point (the
// one cmd/experiments ships) on a smaller unit set, and proves it
// actually detects divergence when fed results that differ.
func TestVerifyDifferential(t *testing.T) {
	params := engine.DefaultParams()
	params.WarmupInstructions = 2_000
	profiles := workload.Table4Profiles(12_000)[:3]
	var units []Unit
	for _, p := range profiles {
		units = append(units, ProfileUnit(p, core.DefaultConfig(), params, ConfigBTB2))
	}
	mismatches, err := VerifyDifferential(context.Background(), 2, units)
	if err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	if len(mismatches) != 0 {
		t.Fatalf("gate reported %d mismatches on identical paths:\n%v", len(mismatches), mismatches)
	}

	// A gate that cannot fail proves nothing: perturb one result and
	// make sure the comparator notices.
	serial, _ := RunUnitsSerial(units[:1])
	perturbed := serial[0]
	perturbed.Cycles++
	if diffs := DiffResults("perturbed", serial[0], perturbed); len(diffs) == 0 {
		t.Fatal("DiffResults missed a perturbed Cycles field")
	}

	// One counter off by one, in a deep copy of the snapshot: a struct
	// copy of the Result would share it.
	counted := serial[0]
	m := *serial[0].Metrics
	m.Values = slices.Clone(m.Values)
	found := false
	for i := range m.Values {
		if m.Values[i].Name == "btb2_evicts_total" {
			m.Values[i].Value++
			found = true
		}
	}
	if !found {
		t.Fatal("no btb2_evicts_total series in the run's metrics")
	}
	counted.Metrics = &m
	diffs := DiffResults("perturbed", serial[0], counted)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "btb2_evicts_total") {
		t.Fatalf("DiffResults on one perturbed counter = %q, want one line naming btb2_evicts_total", diffs)
	}
}

// TestDifferentialGateAcrossConfigs runs a reduced profile set under
// every configuration a production caller schedules: the three Table 3
// configurations, every Ablations variant, the Section 6 miss modes and
// geometries, Figure 3's finite L2 under configurations 1 and 2, and
// preload-hinted profiles; plus the sharing study's interleaved mix and
// the Table 1 kernels without warmup. The oracle must hold for each,
// not just the shipping two-level design.
func TestDifferentialGateAcrossConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate in -short mode")
	}
	params := engine.DefaultParams()
	params.WarmupInstructions = 3_000
	hw := params
	hw.FiniteL2 = true
	btb2 := func(mutate func(*core.Config)) core.Config {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		return cfg
	}
	configs := []struct {
		name   string
		cfg    core.Config
		params engine.Params
		hints  bool
	}{
		{ConfigNoBTB2, core.OneLevelConfig(), params, false},
		{ConfigBTB2, core.DefaultConfig(), params, false},
		{ConfigLargeL1, core.LargeOneLevelConfig(), params, false},
		{"no-steering", btb2(func(c *core.Config) { c.UseSteering = false }), params, false},
		{"no-icache-filter", btb2(func(c *core.Config) { c.Tracker.FilterByICache = false }), params, false},
		{"true-exclusive", btb2(func(c *core.Config) { c.Policy = core.TrueExclusive }), params, false},
		{"inclusive", btb2(func(c *core.Config) { c.Policy = core.Inclusive }), params, false},
		{"install-not-taken", btb2(func(c *core.Config) { c.InstallNotTaken = true }), params, false},
		{"btbp-bypass", btb2(func(c *core.Config) { c.BypassBTBP = true }), params, false},
		{"multi-block", btb2(func(c *core.Config) { c.MultiBlockTransfer = true }), params, false},
		{"miss-decode-surprise", btb2(func(c *core.Config) { c.MissMode = core.MissDecodeSurprise }), params, false},
		{"miss-both", btb2(func(c *core.Config) { c.MissMode = core.MissBoth }), params, false},
		{"btb2-128B-rows", btb2(func(c *core.Config) { c.BTB2 = BTB2RowGeometry(128) }), params, false},
		{"btbp-2way", btb2(func(c *core.Config) { c.BTBP = BTBPGeometry(2) }), params, false},
		{ConfigNoBTB2 + "/finite-l2", core.OneLevelConfig(), hw, false},
		{ConfigBTB2 + "/finite-l2", core.DefaultConfig(), hw, false},
		{ConfigNoBTB2 + "/hints", core.OneLevelConfig(), params, true},
		{ConfigBTB2 + "/hints", core.DefaultConfig(), params, true},
	}
	profiles := workload.Table4Profiles(15_000)[:4]
	var units []Unit
	for _, p := range profiles {
		for _, c := range configs {
			pp := p
			pp.PreloadHints = c.hints
			units = append(units, ProfileUnit(pp, c.cfg, c.params, c.name))
		}
	}
	// The sharing study's time-sliced mix: an InterleaveSource is no
	// trace.Batcher, so the batched path drains it record by record.
	a, b := profiles[0], profiles[1]
	for _, name := range []string{ConfigNoBTB2, ConfigBTB2} {
		units = append(units, Unit{
			Label: "mix/" + name,
			NewSource: func() trace.Source {
				return trace.NewInterleaveSource(2_000, workload.New(a), workload.New(b))
			},
			Config:     Table3()[name],
			Params:     params,
			ConfigName: name,
		})
	}
	// Table 1's directed kernels: in-memory SliceSources, no warmup.
	cold := params
	cold.WarmupInstructions = 0
	for _, k := range []func() *trace.SliceSource{
		func() *trace.SliceSource { return workload.KernelSingleTakenLoop(20_000) },
		func() *trace.SliceSource { return workload.KernelTakenChain(8, 2_000) },
		func() *trace.SliceSource { return workload.KernelTakenChain(200, 80) },
		func() *trace.SliceSource { return workload.KernelNotTakenRun(8, 500) },
		func() *trace.SliceSource { return workload.KernelBranchlessRun(4096, 40) },
	} {
		src := k()
		units = append(units, Unit{
			Label:      src.Name() + "/" + ConfigNoBTB2,
			NewSource:  func() trace.Source { return k() },
			Config:     core.OneLevelConfig(),
			Params:     cold,
			ConfigName: ConfigNoBTB2,
		})
	}
	mismatches, err := VerifyDifferential(context.Background(), 0, units)
	if err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	for _, d := range mismatches {
		t.Error(d)
	}
}

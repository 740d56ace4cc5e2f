package sim

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
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
}

// TestDifferentialGateAcrossConfigs runs a reduced profile set under
// every Table 3 configuration — the oracle must hold for baseline and
// large-BTB1 geometries, not just the shipping two-level design.
func TestDifferentialGateAcrossConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate in -short mode")
	}
	params := engine.DefaultParams()
	params.WarmupInstructions = 3_000
	profiles := workload.Table4Profiles(15_000)[:4]
	var units []Unit
	for _, p := range profiles {
		for _, name := range []string{ConfigNoBTB2, ConfigBTB2, ConfigLargeL1} {
			units = append(units, ProfileUnit(p, Table3()[name], params, name))
		}
	}
	mismatches, err := VerifyDifferential(context.Background(), 0, units)
	if err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	for _, d := range mismatches {
		t.Error(d)
	}
}

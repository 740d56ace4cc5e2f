package bulkpreload_test

// End-to-end integration tests across the module seams: workload
// generation -> ZBPT trace file -> simulation -> comparison -> report
// rendering, plus cross-configuration invariants that only hold when all
// subsystems cooperate.

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/report"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

func integrationProfile() workload.Profile {
	return workload.Profile{
		Name:                "integration",
		UniqueBranches:      10_000,
		TakenFraction:       0.65,
		Instructions:        150_000,
		HotFraction:         0.15,
		WindowFunctions:     32,
		CallsPerTransaction: 6,
		Seed:                31337,
	}
}

// TestTraceFileSimulationEquivalence: simulating a workload directly and
// simulating the same workload after a round trip through the ZBPT file
// format must produce identical results.
func TestTraceFileSimulationEquivalence(t *testing.T) {
	src := workload.New(integrationProfile())
	path := filepath.Join(t.TempDir(), "w.zbpt")
	if err := trace.WriteFile(path, src); err != nil {
		t.Fatal(err)
	}
	fileSrc, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	params := engine.DefaultParams()
	params.WarmupInstructions = 20_000
	direct := engine.Run(src, core.DefaultConfig(), params, "x")
	viaFile := engine.Run(fileSrc, core.DefaultConfig(), params, "x")
	if direct.Cycles != viaFile.Cycles || direct.Outcomes != viaFile.Outcomes {
		t.Errorf("direct and file-backed runs diverge: %.2f vs %.2f cycles",
			direct.Cycles, viaFile.Cycles)
	}
}

// TestFullComparisonPipeline drives sim.Compare and renders every report
// format, checking the structural relationships the paper establishes.
func TestFullComparisonPipeline(t *testing.T) {
	params := engine.DefaultParams()
	params.WarmupInstructions = 20_000
	c, err := sim.Compare(workload.New(integrationProfile()), params)
	if err != nil {
		t.Fatal(err)
	}

	// Capacity-bound workload: the enhanced configurations beat the
	// baseline.
	if c.BTB2Improvement() <= 0 || c.LargeImprovement() <= 0 {
		t.Errorf("improvements not positive: btb2 %.2f%%, large %.2f%%",
			c.BTB2Improvement(), c.LargeImprovement())
	}
	// The BTB2 run must have performed bulk transfers, and the baseline
	// none.
	transfers := func(r engine.Result) int64 { return r.Metrics.Counter("hier_transferred_hits_total") }
	if transfers(c.BTB2) == 0 {
		t.Error("two-level run performed no bulk transfers")
	}
	if transfers(c.Base) != 0 || transfers(c.LargeBTB1) != 0 {
		t.Error("BTB2-less runs performed transfers")
	}
	// Capacity surprises shrink when capacity is added.
	capOf := func(r engine.Result) int64 { return r.Outcomes.N[stats.BadSurpriseCapacity] }
	if !(capOf(c.BTB2) < capOf(c.Base)) {
		t.Errorf("BTB2 did not reduce capacity surprises: %d vs %d", capOf(c.BTB2), capOf(c.Base))
	}
	// Compulsory misses are configuration-independent (same trace).
	compOf := func(r engine.Result) int64 { return r.Outcomes.N[stats.BadSurpriseCompulsory] }
	if compOf(c.Base) != compOf(c.BTB2) || compOf(c.Base) != compOf(c.LargeBTB1) {
		t.Errorf("compulsory class varies across configs: %d / %d / %d",
			compOf(c.Base), compOf(c.BTB2), compOf(c.LargeBTB1))
	}

	// All report renderings produce non-empty output mentioning the key
	// terms.
	var buf bytes.Buffer
	report.Figure2(&buf, []sim.Comparison{c})
	report.Figure4(&buf, c.Trace, c.Base, c.BTB2)
	report.Result(&buf, c.BTB2)
	out := buf.String()
	for _, want := range []string{"effectiveness", "capacity", "integration", "transferred"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
}

// TestStatsConservation: every dynamic branch is classified exactly once
// under every configuration.
func TestStatsConservation(t *testing.T) {
	src := workload.New(integrationProfile())
	st := trace.Measure(src)
	params := engine.DefaultParams()
	params.WarmupInstructions = 0
	for name, cfg := range sim.Table3() {
		r := engine.Run(src, cfg, params, name)
		if r.Outcomes.Total() != st.Branches {
			t.Errorf("%s: %d outcomes vs %d branches", name, r.Outcomes.Total(), st.Branches)
		}
		if r.Instructions != st.Instructions {
			t.Errorf("%s: %d instructions vs %d", name, r.Instructions, st.Instructions)
		}
	}
}

// TestSweepShapesHold checks the qualitative shapes of the Figure 5-7
// sweeps on one workload: bigger BTB2 >= much smaller BTB2, and the
// 3-tracker shipping point >= the 1-tracker point (within noise).
func TestSweepShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in -short mode")
	}
	profiles := []workload.Profile{integrationProfile()}
	params := engine.DefaultParams()
	params.WarmupInstructions = 20_000

	size, err := sim.SweepBTB2Size(profiles, params, []int{512, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if size[1].Improvement < size[0].Improvement-0.5 {
		t.Errorf("Figure 5 shape broken: 24k %.2f%% vs 3k %.2f%%",
			size[1].Improvement, size[0].Improvement)
	}
	trk, err := sim.SweepTrackers(profiles, params, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if trk[1].Improvement < trk[0].Improvement-0.5 {
		t.Errorf("Figure 7 shape broken: 3 trackers %.2f%% vs 1 tracker %.2f%%",
			trk[1].Improvement, trk[0].Improvement)
	}
}

// TestHardwareModeShrinksGain is the Figure 3 invariant: exposing cache
// levels the BTB2 cannot fix dilutes its relative improvement.
func TestHardwareModeShrinksGain(t *testing.T) {
	if testing.Short() {
		t.Skip("hardware mode in -short mode")
	}
	rows, err := sim.Figure3(120_000, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SimGain <= 0 {
			t.Errorf("%s: sim gain %.2f%% not positive", r.Name, r.SimGain)
		}
		if r.HardwareGain > r.SimGain+0.5 {
			t.Errorf("%s: hardware gain %.2f%% exceeds sim gain %.2f%%",
				r.Name, r.HardwareGain, r.SimGain)
		}
	}
	if rows[0].Cores != 1 || rows[1].Cores != 4 {
		t.Error("core counts wrong")
	}
}

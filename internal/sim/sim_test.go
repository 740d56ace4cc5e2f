package sim

import (
	"strings"
	"testing"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/workload"
)

// quickParams trims warmup for small test traces.
func quickParams() engine.Params {
	p := engine.DefaultParams()
	p.WarmupInstructions = 30_000
	return p
}

// quickProfile is a mid-size capacity-bound workload for fast sim tests.
func quickProfile() workload.Profile {
	return workload.Profile{
		Name: "sim-test", UniqueBranches: 20_000, TakenFraction: 0.65,
		Instructions: 250_000, HotFraction: 0.12, WindowFunctions: 64,
		CallsPerTransaction: 8, Seed: 4242,
	}
}

func TestTable3Configs(t *testing.T) {
	cfgs := Table3()
	if len(cfgs) != 3 {
		t.Fatalf("Table 3 has 3 configurations, got %d", len(cfgs))
	}
	// Configuration 1: no BTB2.
	if cfgs[ConfigNoBTB2].BTB2Enabled {
		t.Error("config 1 has BTB2 enabled")
	}
	if cfgs[ConfigNoBTB2].BTB1.Capacity() != 4096 {
		t.Error("config 1 BTB1 != 4k")
	}
	// Configuration 2: 24k BTB2 enabled.
	if !cfgs[ConfigBTB2].BTB2Enabled || cfgs[ConfigBTB2].BTB2.Capacity() != 24576 {
		t.Error("config 2 BTB2 wrong")
	}
	// Configuration 3: 24k BTB1, no BTB2.
	if cfgs[ConfigLargeL1].BTB2Enabled || cfgs[ConfigLargeL1].BTB1.Capacity() != 24576 {
		t.Error("config 3 wrong")
	}
	// All BTBPs are 768 branches.
	for name, c := range cfgs {
		if c.BTBP.Capacity() != 768 {
			t.Errorf("%s: BTBP capacity %d", name, c.BTBP.Capacity())
		}
	}
}

func TestCompareShape(t *testing.T) {
	c, err := Compare(workload.New(quickProfile()), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace != "sim-test" {
		t.Errorf("trace name = %q", c.Trace)
	}
	// Capacity-bound workload: both enhancements help, and the
	// unrealistically large BTB1 is the ceiling.
	if c.BTB2Improvement() <= 0 {
		t.Errorf("BTB2 improvement = %.2f%%, want positive", c.BTB2Improvement())
	}
	if c.LargeImprovement() <= 0 {
		t.Errorf("large-BTB1 improvement = %.2f%%, want positive", c.LargeImprovement())
	}
	eff := c.Effectiveness()
	if eff <= 0 || eff > 160 {
		t.Errorf("effectiveness = %.1f%%, implausible", eff)
	}
	if !strings.Contains(c.String(), "BTB2") {
		t.Error("String() missing content")
	}
}

func TestAverages(t *testing.T) {
	cs := []Comparison{
		{Base: engine.Result{Instructions: 100, Cycles: 200},
			BTB2:      engine.Result{Instructions: 100, Cycles: 180},
			LargeBTB1: engine.Result{Instructions: 100, Cycles: 160}},
		{Base: engine.Result{Instructions: 100, Cycles: 100},
			BTB2:      engine.Result{Instructions: 100, Cycles: 95},
			LargeBTB1: engine.Result{Instructions: 100, Cycles: 90}},
	}
	if got := AverageBTB2Improvement(cs); got < 7.49 || got > 7.51 {
		t.Errorf("AverageBTB2Improvement = %v, want ~7.5", got)
	}
	if got := AverageEffectiveness(cs); got < 49.99 || got > 50.01 {
		t.Errorf("AverageEffectiveness = %v, want ~50", got)
	}
	if AverageBTB2Improvement(nil) != 0 || AverageEffectiveness(nil) != 0 {
		t.Error("empty averages not zero")
	}
}

func TestEffectivenessZeroGuard(t *testing.T) {
	c := Comparison{
		Base:      engine.Result{Instructions: 100, Cycles: 100},
		BTB2:      engine.Result{Instructions: 100, Cycles: 90},
		LargeBTB1: engine.Result{Instructions: 100, Cycles: 100}, // no gain
	}
	if c.Effectiveness() != 0 {
		t.Error("zero-division not guarded")
	}
}

func TestSweepBTB2Size(t *testing.T) {
	profiles := []workload.Profile{quickProfile()}
	pts, err := SweepBTB2Size(profiles, quickParams(), []int{1024, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Figure 5's shape: a larger BTB2 helps at least as much (within
	// noise) as a smaller one on a capacity-bound workload.
	if pts[1].Improvement < pts[0].Improvement-0.5 {
		t.Errorf("24k BTB2 (%.2f%%) much worse than 6k (%.2f%%)",
			pts[1].Improvement, pts[0].Improvement)
	}
	if !pts[1].Shipping || pts[0].Shipping {
		t.Error("shipping flag wrong")
	}
	if pts[1].Label != "24k (4096 x 6)" {
		t.Errorf("label = %q", pts[1].Label)
	}
}

func TestSweepMissDefinition(t *testing.T) {
	profiles := []workload.Profile{quickProfile()}
	pts, err := SweepMissDefinition(profiles, quickParams(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Improvement < -2 {
			t.Errorf("%s: improvement %.2f%% wildly negative", pt.Label, pt.Improvement)
		}
	}
	if !pts[1].Shipping {
		t.Error("4-search point not flagged as shipping")
	}
}

func TestSweepTrackers(t *testing.T) {
	profiles := []workload.Profile{quickProfile()}
	pts, err := SweepTrackers(profiles, quickParams(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// More trackers should not hurt much.
	if pts[1].Improvement < pts[0].Improvement-0.5 {
		t.Errorf("3 trackers (%.2f%%) much worse than 1 (%.2f%%)",
			pts[1].Improvement, pts[0].Improvement)
	}
	if !pts[1].Shipping {
		t.Error("3-tracker point not flagged as shipping")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	profiles := []workload.Profile{quickProfile()}
	abs, err := Ablations(profiles, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) != 8 {
		t.Fatalf("ablations = %d", len(abs))
	}
	names := map[string]bool{}
	for _, a := range abs {
		names[a.Name] = true
	}
	if !names["shipping (semi-exclusive, steered, filtered)"] {
		t.Error("shipping ablation missing")
	}
	// Results are sorted descending.
	for i := 1; i < len(abs); i++ {
		if abs[i].Improvement > abs[i-1].Improvement {
			t.Error("ablations not sorted")
		}
	}
}

func TestFigure2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 in -short mode")
	}
	// A miniature Figure 2: just verify all 13 traces run and produce
	// finite numbers.
	cs, err := Figure2(120_000, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 13 {
		t.Fatalf("traces = %d", len(cs))
	}
	for _, c := range cs {
		if c.Base.CPI() <= 0 || c.BTB2.CPI() <= 0 || c.LargeBTB1.CPI() <= 0 {
			t.Errorf("%s: non-positive CPI", c.Trace)
		}
	}
}

package bulkpreload_test

// Paper-claims verification: each test checks one claim from the paper's
// abstract/results against this reproduction, at shape level (direction,
// ordering, rough factor) with documented tolerances. These are the
// acceptance tests of the whole repository; EXPERIMENTS.md records the
// exact measured values.

import (
	"sync"
	"testing"

	"bulkpreload/internal/area"
	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/workload"
)

// claimInsts matches the experiment default: the biggest Table 4
// footprints need the full length to warm the 24k BTB1, or the
// effectiveness band distorts.
const claimInsts = 1_000_000

var (
	claimsFig2Once sync.Once
	claimsFig2     []sim.Comparison
)

// claimsFigure2 computes the Figure 2 comparison once and shares it
// across the claims tests (it is by far the most expensive input).
func claimsFigure2(t *testing.T) []sim.Comparison {
	t.Helper()
	claimsFig2Once.Do(func() {
		var err error
		claimsFig2, err = sim.Figure2(claimInsts, benchParams())
		if err != nil {
			t.Fatal(err)
		}
	})
	return claimsFig2
}

// Claim (abstract): "On the workloads analyzed in the simulation model,
// measurements show a maximum core performance benefit" — i.e. the BTB2
// helps every large-footprint trace, with a clear maximum well above the
// field's low end.
func TestClaimBTB2HelpsEveryTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	cs := claimsFigure2(t)
	min, max := 1e9, -1e9
	for _, c := range cs {
		imp := c.BTB2Improvement()
		if imp <= 0 {
			t.Errorf("%s: BTB2 improvement %.2f%% not positive", c.Trace, imp)
		}
		if imp < min {
			min = imp
		}
		if imp > max {
			max = imp
		}
	}
	if max < 3*min {
		t.Errorf("improvement spread too flat: min %.2f%%, max %.2f%% (paper spans ~2%%..13.8%%)", min, max)
	}
}

// Claim (§5.1): "BTB2 effectiveness compared to the large BTB1 varies
// from 16.6% to 83.4% with an average of 52%." Tolerances widened to the
// band our synthetic traces produce.
func TestClaimEffectivenessBand(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	cs := claimsFigure2(t)
	avg := sim.AverageEffectiveness(cs)
	if avg < 35 || avg > 90 {
		t.Errorf("average effectiveness %.1f%% outside [35, 90] (paper: 52%%)", avg)
	}
	for _, c := range cs {
		if eff := c.Effectiveness(); eff < 5 || eff > 125 {
			t.Errorf("%s: effectiveness %.1f%% outside sanity band", c.Trace, eff)
		}
	}
}

// Claim (§5.1): the unrealistically large BTB1 bounds the BTB2's benefit
// from above on (essentially) every trace: the BTB2 is an approximation
// of that capacity, not more.
func TestClaimLargeBTB1IsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	for _, c := range claimsFigure2(t) {
		if c.BTB2Improvement() > c.LargeImprovement()+1.0 {
			t.Errorf("%s: BTB2 (%.2f%%) exceeds the large-BTB1 ceiling (%.2f%%) beyond noise",
				c.Trace, c.BTB2Improvement(), c.LargeImprovement())
		}
	}
}

// Claim (Figure 4): "a large portion of the branch penalty is due to
// branch prediction capacity rather than ... algorithms", and "Adding
// the BTB2 reduces the number of capacity bad surprise branches" by
// roughly two-thirds (21.9% -> 8.1%).
func TestClaimCapacityRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	prof, err := workload.ByName("zos-daytrader-dbserv", claimInsts)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.New(prof)
	base := engine.Run(src, core.OneLevelConfig(), benchParams(), "c1")
	with := engine.Run(src, core.DefaultConfig(), benchParams(), "c2")

	capBase := base.Outcomes.Rate(stats.BadSurpriseCapacity)
	capWith := with.Outcomes.Rate(stats.BadSurpriseCapacity)
	// Capacity must be the largest bad-surprise class without the BTB2.
	if capBase < base.Outcomes.Rate(stats.BadSurpriseLatency) {
		t.Errorf("capacity (%.1f%%) below latency class — not a capacity-bound trace", 100*capBase)
	}
	// And the BTB2 must remove at least 40% of it (paper: 63%).
	if capWith > 0.6*capBase {
		t.Errorf("BTB2 recovered only %.0f%% of capacity surprises (paper: ~63%%)",
			100*(1-capWith/capBase))
	}
	// Total bad outcomes must drop.
	if with.Outcomes.BadRate() >= base.Outcomes.BadRate() {
		t.Error("BTB2 did not reduce total bad outcomes")
	}
}

// Claim (Figure 3): the hardware measurement is smaller than the
// simulation's because the simulation treats L2+ as infinite. ("This is
// expected because only the first level ... caches were modeled as
// finite in the simulation.")
func TestClaimHardwareGainSmaller(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	rows, err := sim.Figure3(claimInsts/2, benchParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SimGain <= 0 {
			t.Errorf("%s: no simulated gain", r.Name)
		}
		if r.HardwareGain > r.SimGain {
			t.Errorf("%s: hardware gain %.2f%% exceeds simulation gain %.2f%%",
				r.Name, r.HardwareGain, r.SimGain)
		}
	}
}

// Claim (§3.1): "the first level predictor consisting of the BTB1 and
// BTBP is estimated to cover a footprint of 114 KB - 142.5 KB" — exact
// arithmetic.
func TestClaimFootprintEstimate(t *testing.T) {
	lo, hi := core.DefaultConfig().EstimatedFootprint()
	if float64(lo)/1024 != 114.0 || float64(hi)/1024 != 142.5 {
		t.Errorf("footprint estimate %.1f-%.1f KB, want 114-142.5", float64(lo)/1024, float64(hi)/1024)
	}
}

// Claim (Figure 7): three trackers capture nearly all of the benefit —
// the shipping choice.
func TestClaimThreeTrackersSuffice(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	profiles := benchSweepProfiles()
	pts, err := sim.SweepTrackers(profiles, benchParams(), []int{1, 3, 8})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Improvement <= pts[0].Improvement-0.3 {
		t.Errorf("3 trackers (%.2f%%) not better than 1 (%.2f%%)",
			pts[1].Improvement, pts[0].Improvement)
	}
	if pts[2].Improvement-pts[1].Improvement > 0.5 {
		t.Errorf("8 trackers (%.2f%%) leave >0.5%% over 3 (%.2f%%) — paper found 3 sufficient",
			pts[2].Improvement, pts[1].Improvement)
	}
}

// Claim (Figure 5): more BTB2 capacity never hurts on capacity-bound
// workloads (monotone non-decreasing within noise).
func TestClaimBTB2SizeMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	pts, err := sim.SweepBTB2Size(benchSweepProfiles(), benchParams(), []int{512, 2048, 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Improvement < pts[i-1].Improvement-0.4 {
			t.Errorf("size sweep not monotone: %s %.2f%% after %s %.2f%%",
				pts[i].Label, pts[i].Improvement, pts[i-1].Label, pts[i-1].Improvement)
		}
	}
}

// Claim (§1/§6): the two-level hierarchy achieves "the performance
// benefit of a very large capacity predictor with minimal impact on
// latency and power" — asserted via the area/energy model: same CPI
// class as the big BTB1 at lower total BTB energy.
func TestClaimEnergyAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite in -short mode")
	}
	prof, err := workload.ByName("zos-daytrader-dbserv", claimInsts)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg core.Config) (float64, float64) {
		r := engine.Run(workload.New(prof), cfg, benchParams(), "x")
		e := areaEnergy(cfg, r)
		return r.CPI(), e
	}
	cpiTwo, eTwo := run(core.DefaultConfig())
	cpiBig, eBig := run(core.LargeOneLevelConfig())
	if eTwo >= eBig {
		t.Errorf("two-level BTB energy %.1f uJ not below big-BTB1 %.1f uJ", eTwo/1e6, eBig/1e6)
	}
	// CPI within 5% of the big predictor's.
	if cpiTwo > cpiBig*1.05 {
		t.Errorf("two-level CPI %.4f more than 5%% above big-BTB1 %.4f", cpiTwo, cpiBig)
	}
}

// areaEnergy computes a run's total BTB energy in pJ.
func areaEnergy(cfg core.Config, r engine.Result) float64 {
	return area.EstimateEnergy(cfg, r.Metrics, area.SRAM, r.Cycles).TotalPJ()
}

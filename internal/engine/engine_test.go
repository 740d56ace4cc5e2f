package engine

import (
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

// fastParams returns parameters with no warmup so tiny directed traces
// report everything.
func fastParams() Params {
	p := DefaultParams()
	p.WarmupInstructions = 0
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := HardwareParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.WarmupInstructions = -1 },
		func(p *Params) { p.SnapshotInterval = -1 },
		func(p *Params) { p.CheckpointInterval = -1 },
		func(p *Params) { p.CheckpointInterval = 10 },
		func(p *Params) { p.Fault.PHTPerM = -1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid params")
		}
	}()
	New(core.DefaultConfig(), Params{WarmupInstructions: -1})
}

func TestSingleTakenLoopMostlyGood(t *testing.T) {
	// A single-branch loop: after warmup installs, every iteration is a
	// correct dynamic prediction.
	src := workload.KernelSingleTakenLoop(5000)
	r := Run(src, core.OneLevelConfig(), fastParams(), "test")
	if r.Instructions != int64(src.Len()) {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	goodRate := r.Outcomes.Rate(stats.GoodPredicted)
	if goodRate < 0.95 {
		t.Errorf("good prediction rate = %.3f, want > 0.95 on a tight loop", goodRate)
	}
	if r.CPI() <= 0 {
		t.Error("non-positive CPI")
	}
}

func TestBranchlessRunHasNoBadBranches(t *testing.T) {
	src := workload.KernelBranchlessRun(2048, 20)
	r := Run(src, core.OneLevelConfig(), fastParams(), "test")
	// Only the loop-back branch exists; after the first iterations it is
	// predicted. Bad outcomes should be a handful at most.
	if r.Outcomes.Bad() > 5 {
		t.Errorf("bad outcomes = %d on branchless code", r.Outcomes.Bad())
	}
	// The run should have triggered speculative BTB1 misses (cold code,
	// no branches), demonstrating Section 3.4's false-miss caveat.
	if r.Metrics.Counter("engine_misses_reported_total") == 0 {
		t.Error("branchless run never tripped the speculative miss detector")
	}
}

func TestColdSweepBTB2RecoversSecondPass(t *testing.T) {
	// Two sweeps over 48 blocks (~768 branch sites, exceeding the 4k?
	// no — exceeding nothing, but evicted from BTBP between sweeps due
	// to distance). Compare bad capacity outcomes with and without BTB2.
	src := kernelColdCodeSweep(48, 4)
	params := fastParams()
	noBTB2 := Run(src, core.OneLevelConfig(), params, "c1")
	withBTB2 := Run(src, core.DefaultConfig(), params, "c2")
	if withBTB2.Outcomes.N[stats.BadSurpriseCapacity] > noBTB2.Outcomes.N[stats.BadSurpriseCapacity] {
		t.Errorf("BTB2 increased capacity surprises: %d vs %d",
			withBTB2.Outcomes.N[stats.BadSurpriseCapacity],
			noBTB2.Outcomes.N[stats.BadSurpriseCapacity])
	}
	if withBTB2.Metrics.Counter("hier_transferred_hits_total") == 0 {
		t.Error("cold sweep produced no bulk transfers")
	}
}

func TestCapacityPressureOrdering(t *testing.T) {
	// The defining Figure 2 relationship on a capacity-bound workload:
	// CPI(large BTB1) <= CPI(BTB2) <= CPI(no BTB2).
	p := workload.Profile{
		Name: "cap-test", UniqueBranches: 30_000, TakenFraction: 0.7,
		Instructions: 600_000, HotFraction: 0.1, WindowFunctions: 64,
		CallsPerTransaction: 8, Seed: 99,
	}
	params := DefaultParams()
	params.WarmupInstructions = 100_000
	base := Run(workload.New(p), core.OneLevelConfig(), params, "c1")
	btb2 := Run(workload.New(p), core.DefaultConfig(), params, "c2")
	large := Run(workload.New(p), core.LargeOneLevelConfig(), params, "c3")
	if !(btb2.CPI() < base.CPI()) {
		t.Errorf("BTB2 did not improve CPI: %.4f vs %.4f", btb2.CPI(), base.CPI())
	}
	if !(large.CPI() < base.CPI()) {
		t.Errorf("large BTB1 did not improve CPI: %.4f vs %.4f", large.CPI(), base.CPI())
	}
	// And capacity surprises must shrink in that order.
	c1 := base.Outcomes.N[stats.BadSurpriseCapacity]
	c2 := btb2.Outcomes.N[stats.BadSurpriseCapacity]
	c3 := large.Outcomes.N[stats.BadSurpriseCapacity]
	if !(c2 < c1 && c3 < c1) {
		t.Errorf("capacity surprises not reduced: base %d btb2 %d large %d", c1, c2, c3)
	}
}

func TestImprovementMetric(t *testing.T) {
	a := Result{Instructions: 100, Cycles: 200}
	b := Result{Instructions: 100, Cycles: 150}
	if got := b.Improvement(a); got != 25 {
		t.Errorf("Improvement = %v, want 25", got)
	}
	if (Result{}).Improvement(Result{}) != 0 {
		t.Error("zero-division not guarded")
	}
	if (Result{Instructions: 0, Cycles: 10}).CPI() != 0 {
		t.Error("CPI zero-division not guarded")
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

func TestWarmupExcluded(t *testing.T) {
	src := workload.KernelSingleTakenLoop(50_000) // 100k instructions
	p := fastParams()
	p.WarmupInstructions = 150_000 // longer than trace: everything counted
	all := Run(src, core.OneLevelConfig(), p, "t")
	p.WarmupInstructions = 50_000
	warm := Run(src, core.OneLevelConfig(), p, "t")
	if all.Instructions != int64(src.Len()) {
		t.Errorf("over-long warmup dropped instructions: %d", all.Instructions)
	}
	if warm.Instructions != int64(src.Len())-50_000 {
		t.Errorf("warmup not subtracted: %d", warm.Instructions)
	}
	// Steady-state CPI (warm) must be no worse than cold-start CPI.
	if warm.CPI() > all.CPI()+0.01 {
		t.Errorf("warm CPI %.4f worse than cold %.4f", warm.CPI(), all.CPI())
	}
}

func TestHardwareModeSlower(t *testing.T) {
	// Finite L2 can only add cycles.
	p := workload.Profile{
		Name: "hw-test", UniqueBranches: 8_000, TakenFraction: 0.7,
		Instructions: 200_000, HotFraction: 0.1, WindowFunctions: 32,
		CallsPerTransaction: 6, Seed: 7,
	}
	simR := Run(workload.New(p), core.DefaultConfig(), DefaultParams(), "sim")
	hwR := Run(workload.New(p), core.DefaultConfig(), HardwareParams(), "hw")
	if hwR.CPI() < simR.CPI() {
		t.Errorf("hardware mode faster than simulation mode: %.4f vs %.4f", hwR.CPI(), simR.CPI())
	}
	if hwR.Metrics.Counter("l2i_accesses_total") == 0 {
		t.Error("hardware mode never touched the L2I")
	}
}

func TestRunResetsBetweenTraces(t *testing.T) {
	e := New(core.OneLevelConfig(), fastParams())
	src := workload.KernelSingleTakenLoop(1000)
	r1 := e.Run(src, "a")
	r2 := e.Run(src, "b")
	if r1.Instructions != r2.Instructions || r1.Cycles != r2.Cycles {
		t.Errorf("runs differ despite reset: %v vs %v cycles", r1.Cycles, r2.Cycles)
	}
	if r1.Outcomes != r2.Outcomes {
		t.Error("outcome counts differ across reset")
	}
}

func TestDeterminism(t *testing.T) {
	p := workload.Profile{
		Name: "det", UniqueBranches: 3000, TakenFraction: 0.6,
		Instructions: 100_000, HotFraction: 0.2, WindowFunctions: 16,
		CallsPerTransaction: 4, Seed: 5,
	}
	r1 := Run(workload.New(p), core.DefaultConfig(), DefaultParams(), "x")
	r2 := Run(workload.New(p), core.DefaultConfig(), DefaultParams(), "x")
	if r1.Cycles != r2.Cycles || r1.Outcomes != r2.Outcomes {
		t.Error("simulation is nondeterministic")
	}
}

func TestOutcomeTotalsMatchBranchCount(t *testing.T) {
	src := kernelColdCodeSweep(8, 3)
	st := trace.Measure(src)
	r := Run(src, core.DefaultConfig(), fastParams(), "t")
	if r.Outcomes.Total() != st.Branches {
		t.Errorf("outcomes %d != dynamic branches %d", r.Outcomes.Total(), st.Branches)
	}
}

func TestPrefetchHidesTargetMisses(t *testing.T) {
	// A cycle of taken branches hopping across more 256-byte lines than
	// the 64 KB L1I holds: once the branches are warm in the BTB, each
	// predicted-taken target line is gone from the L1I and must be
	// prefetched by the lookahead predictor.
	const sites = 600 // > 256 L1I lines
	var ins []trace.Inst
	// 544-byte stride: coprime with the BTBP's 128-row indexing, so the
	// 600 sites spread across rows instead of thrashing a few of them.
	site := func(i int) zaddr.Addr { return zaddr.Addr(0x100000 + i*544) }
	for rep := 0; rep < 6; rep++ {
		for i := 0; i < sites; i++ {
			// A few sequential instructions keep decode busy long enough
			// for the predictor to stay ahead (back-to-back taken
			// branches saturate the Table 1 rates, as on hardware).
			for k := 0; k < 4; k++ {
				ins = append(ins, trace.Inst{
					Addr: site(i) + zaddr.Addr(4*k), Length: 4, Kind: trace.NotBranch,
				})
			}
			ins = append(ins, trace.Inst{
				Addr: site(i) + 16, Length: 4, Kind: trace.UncondDirect,
				Taken: true, Target: site((i + 1) % sites), StaticTaken: true,
			})
		}
	}
	r := Run(trace.NewSliceSource("line-hopper", ins), core.OneLevelConfig(), fastParams(), "t")
	if r.Metrics.Counter("l1i_prefetches_total") == 0 {
		t.Error("no prefetches issued for predicted-taken targets")
	}
}

func TestDecodeSurpriseMissMode(t *testing.T) {
	// In decode-surprise mode, the speculative detector is off: misses
	// are reported only when surprise branches are encountered, and they
	// launch full searches (no I-cache filter involvement).
	src := kernelColdCodeSweep(24, 3)
	cfg := core.DefaultConfig()
	cfg.MissMode = core.MissDecodeSurprise
	m := Run(src, cfg, fastParams(), "decode").Metrics
	if n := m.Counter("engine_misses_reported_total"); n != 0 {
		t.Errorf("speculative detector reported %d misses in decode mode", n)
	}
	if m.Counter("tracker_btb1_misses_total") == 0 {
		t.Error("decode-surprise mode never reported misses to the trackers")
	}
	if m.Counter("hier_transferred_hits_total") == 0 {
		t.Error("decode-surprise mode produced no transfers")
	}
	// Partial searches exist only for speculative misses.
	if n := m.Counter("tracker_partial_searches_total"); n != 0 {
		t.Errorf("decode-surprise mode launched %d partial searches", n)
	}
}

func TestMissModeBothCombines(t *testing.T) {
	src := kernelColdCodeSweep(24, 3)
	cfg := core.DefaultConfig()
	cfg.MissMode = core.MissBoth
	m := Run(src, cfg, fastParams(), "both").Metrics
	reported := m.Counter("engine_misses_reported_total")
	if reported == 0 {
		t.Error("speculative detector inactive in both-mode")
	}
	if tracked := m.Counter("tracker_btb1_misses_total"); tracked <= reported {
		t.Errorf("decode reports missing: tracker saw %d, detector %d", tracked, reported)
	}
}

func TestPreloadHintsReduceSurprises(t *testing.T) {
	// A hinted workload installs its branches via preload instructions;
	// bad surprises must drop relative to the unhinted twin even though
	// the hinted trace executes extra (hint) instructions.
	plain := workload.Profile{
		Name: "hint-test", UniqueBranches: 15_000, TakenFraction: 0.7,
		Instructions: 250_000, HotFraction: 0.1, WindowFunctions: 48,
		CallsPerTransaction: 8, Seed: 12,
	}
	hinted := plain
	hinted.PreloadHints = true
	params := DefaultParams()
	params.WarmupInstructions = 50_000
	rPlain := Run(workload.New(plain), core.OneLevelConfig(), params, "plain")
	rHinted := Run(workload.New(hinted), core.OneLevelConfig(), params, "hinted")
	if rHinted.Metrics.Counter("hier_preload_installs_total") == 0 {
		t.Fatal("no preload installs executed")
	}
	badSurprises := func(c stats.Counts) int64 {
		return c.N[stats.BadSurpriseCompulsory] + c.N[stats.BadSurpriseLatency] + c.N[stats.BadSurpriseCapacity]
	}
	plainBad := badSurprises(rPlain.Outcomes)
	hintedBad := badSurprises(rHinted.Outcomes)
	// Compare rates (instruction counts differ).
	plainRate := float64(plainBad) / float64(rPlain.Instructions)
	hintedRate := float64(hintedBad) / float64(rHinted.Instructions)
	if hintedRate >= plainRate {
		t.Errorf("hints did not reduce bad-surprise rate: %.4f vs %.4f", hintedRate, plainRate)
	}
}

func TestMultiBlockChaseRuns(t *testing.T) {
	// A realistic workload's functions call across 4 KB blocks, so bulk
	// transfers surface clusters of cross-block targets for the chase to
	// follow (a single stray jump is below the evidence threshold).
	p := workload.Profile{
		Name: "chase-test", UniqueBranches: 15_000, TakenFraction: 0.7,
		Instructions: 250_000, HotFraction: 0.1, WindowFunctions: 48,
		CallsPerTransaction: 8, Seed: 12,
	}
	cfg := core.DefaultConfig()
	cfg.MultiBlockTransfer = true
	r := Run(workload.New(p), cfg, fastParams(), "chase")
	if r.Metrics.Counter("hier_chained_searches_total") == 0 {
		t.Error("multi-block transfer never chased")
	}
}

func TestPHTLearnsAlternatingBranch(t *testing.T) {
	// An alternating branch defeats the bimodal counter (it mispredicts
	// about half the time) but the PHT's direction history disambiguates
	// it: after the first few iterations every direction comes from the
	// PHT and nearly nothing mispredicts.
	r := Run(kernelAlternating(4000), core.OneLevelConfig(), fastParams(), "pht")
	if m, n := r.Outcomes.N[stats.BadWrongDir]+r.Outcomes.N[stats.BadWrongTarget], r.Outcomes.Total(); m*100 >= n {
		t.Errorf("alternating branch mispredicted %d of %d branches, want under 1%%", m, n)
	}
	if n := r.Metrics.Counter("hier_pht_overrides_total"); n < 3900 {
		t.Errorf("PHT supplied %d directions, want at least 3900 of the 4000 alternating branches", n)
	}
}

func TestCTBLearnsCorrelatedReturn(t *testing.T) {
	// A return alternating between two call sites mispredicts its target
	// with the plain BTB entry about half the time; the path-indexed CTB
	// learns both.
	r := Run(kernelCallerCorrelatedReturn(4000), core.OneLevelConfig(), fastParams(), "ctb")
	if w, n := r.Outcomes.N[stats.BadWrongTarget], r.Outcomes.Total(); w*100 >= n {
		t.Errorf("correlated return took %d wrong targets in %d branches, want under 1%%", w, n)
	}
	if n := r.Metrics.Counter("hier_ctb_overrides_total"); n < 3900 {
		t.Errorf("CTB supplied %d targets, want at least 3900 of the 4000 returns", n)
	}
}

func TestFITAcceleratesSmallChain(t *testing.T) {
	// An 8-site taken chain fits the 64-entry FIT: nearly every taken
	// prediction re-indexes through it at the 2-cycle rate, the
	// predictor stays ahead of decode (no latency surprises past the
	// cold start), and CPI stays at the 0.75 dispatch floor.
	r := Run(workload.KernelTakenChain(8, 4000), core.OneLevelConfig(), fastParams(), "fit")
	taken := r.Outcomes.Total()
	if hits := r.Metrics.Counter("fit_hits_total"); hits*100 < taken*99 {
		t.Errorf("FIT hit %d of %d taken predictions, want at least 99%%", hits, taken)
	}
	if n := r.Outcomes.N[stats.BadSurpriseLatency]; n > 8 {
		t.Errorf("%d latency surprises on the FIT-resident chain, want at most 8", n)
	}
	if cpi := r.CPI(); cpi > 0.76 {
		t.Errorf("chain CPI %.4f, want at most 0.76", cpi)
	}
}

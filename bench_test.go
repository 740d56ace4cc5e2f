package bulkpreload_test

// One benchmark per table and figure of the paper's evaluation section.
// Each bench runs the corresponding experiment at a bench-friendly trace
// length and reports the headline quantities as custom metrics
// (improvement-pct, effectiveness-pct, bad-pct, CPI), so
//
//	go test -bench=. -benchmem
//
// regenerates the full result set. cmd/experiments produces the same
// numbers at full trace length with formatted output.

import (
	"fmt"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/predictor"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

// benchInsts keeps every benchmark iteration around a second or less.
const benchInsts = 300_000

func benchParams() engine.Params {
	p := engine.DefaultParams()
	p.WarmupInstructions = 50_000
	return p
}

// --- Table 1: search pipeline throughput ---

func BenchmarkTable1SearchPipeline(b *testing.B) {
	kernels := []struct {
		name string
		src  trace.Source
	}{
		{"single-taken-loop", workload.KernelSingleTakenLoop(30_000)},
		{"taken-chain-fit", workload.KernelTakenChain(8, 2_000)},
		{"taken-chain-mru", workload.KernelTakenChain(200, 100)},
		{"not-taken-pairs", workload.KernelNotTakenRun(8, 600)},
		{"branchless-run", workload.KernelBranchlessRun(4096, 40)},
	}
	params := engine.DefaultParams()
	params.WarmupInstructions = 0
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			var cpi float64
			for i := 0; i < b.N; i++ {
				r := engine.Run(k.src, core.OneLevelConfig(), params, "t1")
				cpi = r.CPI()
			}
			b.ReportMetric(cpi, "CPI")
		})
	}
}

// --- Table 2: BTB1 miss detection ---

func BenchmarkTable2MissDetection(b *testing.B) {
	// A long predictionless search stream through the detector at the
	// shipping 4-search limit: throughput of the miss state machine and
	// the resulting miss rate per row searched.
	var misses int64
	for i := 0; i < b.N; i++ {
		d := predictor.NewMissDetector(predictor.DefaultMissConfig)
		misses = 0
		for row := 0; row < 4096; row++ {
			if _, m := d.ObserveSearch(zaddr.Addr(row*32), row%5 == 4); m {
				misses++
			}
		}
	}
	b.ReportMetric(float64(misses), "misses/4096-rows")
}

// --- Table 3: the three simulated configurations ---

func BenchmarkTable3Configs(b *testing.B) {
	prof, err := workload.ByName("zos-daytrader-dbserv", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	for name, cfg := range sim.Table3() {
		b.Run(name, func(b *testing.B) {
			var cpi float64
			for i := 0; i < b.N; i++ {
				r := engine.Run(workload.New(prof), cfg, benchParams(), name)
				cpi = r.CPI()
			}
			b.ReportMetric(cpi, "CPI")
		})
	}
}

// --- Table 4: trace footprints ---

func BenchmarkTable4TraceFootprints(b *testing.B) {
	for _, p := range workload.Table4Profiles(benchInsts) {
		b.Run(p.Name, func(b *testing.B) {
			var st trace.Stats
			for i := 0; i < b.N; i++ {
				st = trace.Measure(workload.New(p))
			}
			b.ReportMetric(float64(st.UniqueBranches), "unique-branches")
			b.ReportMetric(float64(st.UniqueTaken), "unique-taken")
		})
	}
}

// --- Table 5: chip configuration (structure build cost) ---

func BenchmarkTable5HierarchyBuild(b *testing.B) {
	// Building the full shipping hierarchy (all SRAM/register structures
	// allocated and validated).
	for i := 0; i < b.N; i++ {
		h := core.New(core.DefaultConfig(), fault.Config{})
		if h == nil {
			b.Fatal("nil hierarchy")
		}
	}
}

// --- Figure 2: CPI improvement per trace ---

func BenchmarkFig2CPIImprovement(b *testing.B) {
	for _, p := range workload.Table4Profiles(benchInsts) {
		b.Run(p.Name, func(b *testing.B) {
			var c sim.Comparison
			for i := 0; i < b.N; i++ {
				var err error
				if c, err = sim.Compare(workload.New(p), benchParams()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(c.BTB2Improvement(), "btb2-improvement-pct")
			b.ReportMetric(c.LargeImprovement(), "large-btb1-improvement-pct")
			b.ReportMetric(c.Effectiveness(), "effectiveness-pct")
		})
	}
}

// --- Figure 3: hardware mode ---

func BenchmarkFig3HardwareMode(b *testing.B) {
	var rows []sim.HardwareResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.Figure3(benchInsts/2, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SimGain, fmt.Sprintf("sim-gain-pct-%dcore", r.Cores))
		b.ReportMetric(r.HardwareGain, fmt.Sprintf("hw-gain-pct-%dcore", r.Cores))
	}
}

// --- Figure 4: bad branch outcomes on DayTrader DBServ ---

func BenchmarkFig4BadOutcomes(b *testing.B) {
	prof, err := workload.ByName("zos-daytrader-dbserv", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	var without, with engine.Result
	for i := 0; i < b.N; i++ {
		src := workload.New(prof)
		without = engine.Run(src, core.OneLevelConfig(), benchParams(), "no-btb2")
		with = engine.Run(src, core.DefaultConfig(), benchParams(), "btb2")
	}
	b.ReportMetric(100*without.Outcomes.BadRate(), "bad-pct-no-btb2")
	b.ReportMetric(100*without.Outcomes.Rate(stats.BadSurpriseCapacity), "capacity-pct-no-btb2")
	b.ReportMetric(100*with.Outcomes.BadRate(), "bad-pct-btb2")
	b.ReportMetric(100*with.Outcomes.Rate(stats.BadSurpriseCapacity), "capacity-pct-btb2")
}

// sweep helpers shared by Figures 5-7: a representative trace subset.
func benchSweepProfiles() []workload.Profile {
	all := workload.Table4Profiles(150_000)
	return []workload.Profile{all[0], all[10]}
}

// --- Figure 5: BTB2 size sweep ---

func BenchmarkFig5BTB2Size(b *testing.B) {
	for _, rows := range []int{1024, 4096, 8192} {
		b.Run(fmt.Sprintf("rows-%d", rows), func(b *testing.B) {
			var pts []sim.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = sim.SweepBTB2Size(benchSweepProfiles(), benchParams(), []int{rows})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].Improvement, "improvement-pct")
		})
	}
}

// --- Figure 6: BTB1 miss definition sweep ---

func BenchmarkFig6MissDefinition(b *testing.B) {
	for _, lim := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("searches-%d", lim), func(b *testing.B) {
			var pts []sim.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = sim.SweepMissDefinition(benchSweepProfiles(), benchParams(), []int{lim})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].Improvement, "improvement-pct")
		})
	}
}

// --- Figure 7: tracker count sweep ---

func BenchmarkFig7Trackers(b *testing.B) {
	for _, n := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("trackers-%d", n), func(b *testing.B) {
			var pts []sim.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = sim.SweepTrackers(benchSweepProfiles(), benchParams(), []int{n})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].Improvement, "improvement-pct")
		})
	}
}

// --- Ablations: the DESIGN.md design-choice studies ---

func BenchmarkAblationSteering(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.UseSteering = false })
}

func BenchmarkAblationICacheFilter(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Tracker.FilterByICache = false })
}

func BenchmarkAblationTrueExclusive(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Policy = core.TrueExclusive })
}

func BenchmarkAblationInclusive(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Policy = core.Inclusive })
}

// benchAblation measures a config variant against the shipping two-level
// design on the headline trace.
func benchAblation(b *testing.B, mutate func(*core.Config)) {
	prof, err := workload.ByName("zos-daytrader-dbserv", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	variant := core.DefaultConfig()
	mutate(&variant)
	var ship, vary engine.Result
	for i := 0; i < b.N; i++ {
		src := workload.New(prof)
		ship = engine.Run(src, core.DefaultConfig(), benchParams(), "shipping")
		vary = engine.Run(src, variant, benchParams(), "variant")
	}
	b.ReportMetric(ship.CPI(), "CPI-shipping")
	b.ReportMetric(vary.CPI(), "CPI-variant")
}

// --- End-to-end simulator throughput (engineering metric) ---

func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, err := workload.ByName("zos-lspr-cb84", 200_000)
	if err != nil {
		b.Fatal(err)
	}
	src := workload.New(prof)
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		r := engine.Run(src, core.DefaultConfig(), benchParams(), "bench")
		insts += r.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// --- Section 6 future-work study benches ---

func BenchmarkRowCoverage(b *testing.B) {
	for _, w := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("%dB", w), func(b *testing.B) {
			var pts []sim.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = sim.SweepRowCoverage(benchSweepProfiles(), benchParams(), []int{w})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].Improvement, "improvement-pct")
		})
	}
}

func BenchmarkMissMode(b *testing.B) {
	var pts []sim.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sim.SweepMissMode(benchSweepProfiles(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Improvement, p.Label+"-pct")
	}
}

func BenchmarkMultiBlockTransfer(b *testing.B) {
	var pts []sim.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sim.MultiBlockStudy(benchSweepProfiles(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Improvement, "single-block-pct")
	b.ReportMetric(pts[1].Improvement, "multi-block-pct")
}

func BenchmarkPreloadInstructions(b *testing.B) {
	prof, err := workload.ByName("zos-daytrader-dbserv", benchInsts/2)
	if err != nil {
		b.Fatal(err)
	}
	var pts []sim.SweepPoint
	for i := 0; i < b.N; i++ {
		if pts, err = sim.PreloadStudy(prof, benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Improvement, fmt.Sprintf("pt%d-pct", int(p.Value)))
	}
}

func BenchmarkSharingInterference(b *testing.B) {
	a, err := workload.ByName("zos-lspr-cb84", benchInsts/2)
	if err != nil {
		b.Fatal(err)
	}
	c, err := workload.ByName("zos-lspr-ims", benchInsts/2)
	if err != nil {
		b.Fatal(err)
	}
	var r sim.SharingResult
	for i := 0; i < b.N; i++ {
		if r, err = sim.SharingStudy(a, c, 20_000, core.DefaultConfig(), benchParams(), "bench"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.InterferencePct, "interference-pct")
}

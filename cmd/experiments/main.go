// Command experiments regenerates every table and figure of the paper's
// evaluation section from the simulator, plus the ablation studies.
//
// Usage:
//
//	experiments               # everything (can take several minutes)
//	experiments -only fig2    # one experiment: table1..table5, fig2..fig7, ablations
//	experiments -insts 500000 # shorter traces for a quick pass
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"bulkpreload/internal/analysis"
	"bulkpreload/internal/area"
	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/obs/perfstat"
	"bulkpreload/internal/predictor"
	"bulkpreload/internal/report"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

func main() {
	var (
		only  = flag.String("only", "", "run a single experiment (see -list)")
		insts = flag.Int("insts", workload.DefaultInstructions, "dynamic instructions per trace")
		list  = flag.Bool("list", false, "list experiment names and exit")
	)
	flag.IntVar(&workers, "workers", 0, "worker count for the diffgate experiment (0 = GOMAXPROCS)")
	flag.Parse()

	all := []struct {
		name string
		run  func(int)
	}{
		{"table1", table1},
		{"table2", table2},
		{"table3", table3},
		{"table4", table4},
		{"table5", table5},
		{"fig2", fig2},
		{"fig3", fig3},
		{"fig4", fig4},
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", fig7},
		{"ablations", ablations},
		{"rowcov", rowcov},
		{"missmode", missmode},
		{"multiblock", multiblock},
		{"preload", preloadStudy},
		{"sharing", sharing},
		{"area", areaStudy},
		{"locality", locality},
		{"btbpsize", btbpSize},
		{"installdelay", installDelay},
		{"faults", faults},
		{"diffgate", diffgate},
		{"perfstat", perfstatStudy},
	}
	if *list {
		for _, e := range all {
			fmt.Println(e.name)
		}
		return
	}
	if *only != "" {
		for _, e := range all {
			if e.name == *only {
				e.run(*insts)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (see -list)\n", *only)
		os.Exit(2)
	}
	for _, e := range all {
		start := time.Now()
		e.run(*insts)
		fmt.Printf("  [%s took %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
}

// workers is the -workers flag: the parallel worker count the diffgate
// experiment runs against its serial oracle.
var workers int

// diffgate runs the serial-oracle differential gate outside the test
// suite: every Table 4 trace under every Table 3 configuration, run
// once single-threaded and once through the work-stealing batched
// pipeline, demanding bit-identical observability snapshots. Exits
// non-zero on any divergence, so it slots into release scripts.
func diffgate(insts int) {
	fmt.Println("Differential gate: serial oracle vs work-stealing batched pipeline")
	params := engine.DefaultParams()
	names := []string{sim.ConfigNoBTB2, sim.ConfigBTB2, sim.ConfigLargeL1}
	cfgs := sim.Table3()
	var units []sim.Unit
	for _, p := range workload.Table4Profiles(insts) {
		for _, name := range names {
			units = append(units, sim.ProfileUnit(p, cfgs[name], params, name))
		}
	}
	start := time.Now()
	mismatches, err := sim.VerifyDifferential(context.Background(), workers, units)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: diffgate: %v\n", err)
		os.Exit(1)
	}
	if len(mismatches) > 0 {
		for _, m := range mismatches {
			fmt.Fprintln(os.Stderr, " ", m)
		}
		fmt.Fprintf(os.Stderr, "experiments: diffgate: %d mismatches across %d units\n",
			len(mismatches), len(units))
		os.Exit(1)
	}
	fmt.Printf("  %d units (13 traces x 3 configs) bit-identical across both paths in %.1fs\n",
		len(units), time.Since(start).Seconds())
}

// perfstatStudy runs the benchmark-trajectory scenarios once at the
// requested trace length and prints the entry as a table — the same
// measurements `zsim -perfstat` records into BENCH_parallel.json, here
// as a quick interactive readout.
func perfstatStudy(insts int) {
	fmt.Println("Benchmark trajectory scenarios (zsim -perfstat, BENCH_parallel.json)")
	for _, s := range perfstat.Scenarios() {
		fmt.Printf("  %-15s %s\n", s.Name, s.Description)
	}
	entry, err := perfstat.Run(context.Background(), perfstat.Options{
		Workers:           workers,
		Runs:              1,
		SweepInstructions: insts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: perfstat: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  measured at GOMAXPROCS=%d, %d workers:\n", entry.GOMAXPROCS, entry.Workers)
	for _, s := range entry.Scenarios {
		fmt.Printf("  %s (%d records):\n", s.Name, s.Records)
		names := make([]string, 0, len(s.Metrics))
		for name := range s.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-26s %14.4g\n", name, s.Metrics[name])
		}
	}
}

// must unwraps a (value, error) study result; any shard failure aborts
// the experiment run with the joined error.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	return v
}

// table1 demonstrates the Table 1 search-pipeline throughput cases via
// directed microkernels: measured prediction rates under each regime.
func table1(int) {
	fmt.Println("Table 1. First level search pipeline throughput (directed kernels)")
	params := engine.DefaultParams()
	params.WarmupInstructions = 0
	type row struct {
		name string
		src  trace.Source
	}
	rows := []row{
		{"single taken loop (1 pred/cycle peak)", workload.KernelSingleTakenLoop(20_000)},
		{"taken chain, 8 sites (FIT regime)", workload.KernelTakenChain(8, 2_000)},
		{"taken chain, 200 sites (MRU regime)", workload.KernelTakenChain(200, 80)},
		{"not-taken pairs (2 per 5 cycles)", workload.KernelNotTakenRun(8, 500)},
		{"branchless run (16 B/cycle search)", workload.KernelBranchlessRun(4096, 40)},
	}
	for _, r := range rows {
		res := engine.Run(r.src, core.OneLevelConfig(), params, "t1")
		fmt.Printf("  %-42s CPI %6.3f, %5.1f%% branches, %5.2f%% bad\n",
			r.name, res.CPI(), 100*float64(res.Outcomes.Total())/float64(res.Instructions),
			100*res.Outcomes.BadRate())
	}
	tp := predictor.DefaultThroughput
	fmt.Printf("  configured rates: loop %v, FIT %v, MRU %v, other %v, NT-pair %v, NT %v cycles; seq %v cycles/row\n",
		tp.TakenLoop.Float(), tp.TakenFIT.Float(), tp.TakenMRU.Float(),
		tp.TakenOther.Float(), tp.NotTakenPaired.Float(), tp.NotTaken.Float(),
		tp.SeqSearchPerRow.Float())
	fmt.Println("  pipeline stages (paper Table 1):")
	for _, st := range predictor.PipelineStages() {
		fmt.Printf("    %-3s %s\n", st.Name, st.Search)
		if st.ReindexPrediction != "" {
			fmt.Printf("        re-index: %s\n", st.ReindexPrediction)
		}
		if st.ReindexSequential != "" {
			fmt.Printf("        sequential: %s\n", st.ReindexSequential)
		}
	}
}

// table2 walks the BTB1-miss detection sequence of Table 2.
func table2(int) {
	fmt.Println("Table 2. BTB1 miss detection (3-search illustration, as in the paper)")
	d := predictor.NewMissDetector(predictor.MissConfig{SearchLimit: 3})
	searches := []struct {
		addr  uint64
		found bool
	}{{0x102, false}, {0x120, false}, {0x140, false}}
	for i, s := range searches {
		at, miss := d.ObserveSearch(zaddr.Addr(s.addr), s.found)
		status := "no miss yet"
		if miss {
			status = fmt.Sprintf("BTB1 miss reported at starting search address %#x", uint64(at))
		}
		fmt.Printf("  search %d at %#x (empty): %s\n", i+1, s.addr, status)
	}
	fmt.Println("  shipping setting: 4 searches / 128 bytes (see fig6 for the sweep)")
}

// table3 prints the three simulated configurations.
func table3(int) {
	fmt.Println("Table 3. Simulated configurations")
	names := []string{sim.ConfigNoBTB2, sim.ConfigBTB2, sim.ConfigLargeL1}
	cfgs := sim.Table3()
	for _, n := range names {
		c := cfgs[n]
		btb2 := "disabled"
		if c.BTB2Enabled {
			btb2 = fmt.Sprintf("%d (%d x %d)", c.BTB2.Capacity(), c.BTB2.Rows, c.BTB2.Ways)
		}
		fmt.Printf("  %-11s BTBP %d (%d x %d)   BTB1 %d (%d x %d)   BTB2 %s\n",
			n, c.BTBP.Capacity(), c.BTBP.Rows, c.BTBP.Ways,
			c.BTB1.Capacity(), c.BTB1.Rows, c.BTB1.Ways, btb2)
	}
}

// table4 compares generated trace footprints against the paper's counts.
func table4(insts int) {
	var rows []report.Table4Row
	for _, p := range workload.Table4Profiles(insts) {
		rows = append(rows, report.MeasureTable4Row(
			p.Name, p.UniqueBranches, int(float64(p.UniqueBranches)*p.TakenFraction),
			workload.New(p)))
	}
	report.Table4(os.Stdout, rows)
}

// table5 prints the modeled chip configuration.
func table5(int) {
	p := engine.DefaultParams()
	fmt.Println("Table 5. Modeled zEC12 configuration (engine parameters)")
	fmt.Printf("  L1 instruction cache   %d KB (%d-way, %d B lines)\n",
		p.L1I.SizeBytes/1024, p.L1I.Ways, p.L1I.LineBytes)
	fmt.Printf("  L2 instruction cache   %d KB (%d-way; finite in hardware mode only)\n",
		p.L2I.SizeBytes/1024, p.L2I.Ways)
	fmt.Printf("  base issue rate        %.2f cycles/instruction\n", p.DispatchTicks.Float())
	fmt.Printf("  mispredict restart     %d cycles\n", p.MispredictPenalty)
	fmt.Printf("  surprise-taken redirect %d cycles\n", p.SurpriseTakenPenalty)
	fmt.Printf("  L1I / L2I miss penalty %d / +%d cycles\n", p.L1IMissPenalty, p.L2IMissPenalty)
	c := core.DefaultConfig()
	lo, hi := c.EstimatedFootprint()
	fmt.Printf("  first level footprint  %.1f-%.1f KB estimated (BTB1 %d + BTBP %d branches)\n",
		float64(lo)/1024, float64(hi)/1024, c.BTB1.Capacity(), c.BTBP.Capacity())
	fmt.Printf("  PHT/CTB/FIT/sBHT       %d / %d / %d / %d entries\n",
		c.PHTEntries, c.CTBEntries, c.FITEntries, c.SurpriseBHTEntries)
}

func fig2(insts int) {
	cs := must(sim.Figure2(insts, engine.DefaultParams()))
	report.Figure2(os.Stdout, cs)
}

func fig3(insts int) {
	rows := must(sim.Figure3(insts, engine.DefaultParams()))
	report.Figure3(os.Stdout, rows)
}

func fig4(insts int) {
	p, err := workload.ByName("zos-daytrader-dbserv", insts)
	if err != nil {
		panic(err)
	}
	src := workload.New(p)
	params := engine.DefaultParams()
	without := engine.Run(src, core.OneLevelConfig(), params, sim.ConfigNoBTB2)
	with := engine.Run(src, core.DefaultConfig(), params, sim.ConfigBTB2)
	report.Figure4(os.Stdout, p.Name, without, with)
}

// sweepProfiles picks a representative subset for the parameter sweeps
// (all 13 traces x many points is expensive; the paper averages 13).
func sweepProfiles(insts int) []workload.Profile {
	all := workload.Table4Profiles(insts)
	return []workload.Profile{all[0], all[1], all[6], all[10], all[11]}
}

func fig5(insts int) {
	pts := must(sim.SweepBTB2Size(sweepProfiles(insts), engine.DefaultParams(),
		[]int{512, 1024, 2048, 4096, 8192}))
	report.Sweep(os.Stdout, "Figure 5. Various BTB2 sizes (avg CPI improvement vs config 1)", pts)
}

func fig6(insts int) {
	pts := must(sim.SweepMissDefinition(sweepProfiles(insts), engine.DefaultParams(),
		[]int{1, 2, 3, 4, 6, 8}))
	report.Sweep(os.Stdout, "Figure 6. Various definitions of BTB1 miss (searches before reporting)", pts)
}

func fig7(insts int) {
	pts := must(sim.SweepTrackers(sweepProfiles(insts), engine.DefaultParams(),
		[]int{1, 2, 3, 4, 6, 8}))
	report.Sweep(os.Stdout, "Figure 7. Various numbers of BTB2 trackers", pts)
}

func ablations(insts int) {
	abs := must(sim.Ablations(sweepProfiles(insts), engine.DefaultParams()))
	report.Ablations(os.Stdout, abs)
}

// --- Section 6 future-work studies ---

func rowcov(insts int) {
	pts := must(sim.SweepRowCoverage(sweepProfiles(insts), engine.DefaultParams(), []int{32, 64, 128}))
	report.Sweep(os.Stdout,
		"Future work (sec. 6): BTB2 congruence-class coverage (constant 24k capacity)", pts)
}

func missmode(insts int) {
	pts := must(sim.SweepMissMode(sweepProfiles(insts), engine.DefaultParams()))
	report.Sweep(os.Stdout,
		"Future work (sec. 6): BTB1 miss definition - early speculative vs decode-time precise", pts)
}

func multiblock(insts int) {
	pts := must(sim.MultiBlockStudy(sweepProfiles(insts), engine.DefaultParams()))
	report.Sweep(os.Stdout,
		"Future work (sec. 6): bounded multi-block transfers", pts)
}

// preloadStudy compares software branch-preload instructions against the
// hardware bulk preload.
func preloadStudy(insts int) {
	prof, err := workload.ByName("zos-daytrader-dbserv", insts)
	if err != nil {
		panic(err)
	}
	pts := sim.PreloadStudy(prof, engine.DefaultParams())
	report.Sweep(os.Stdout,
		"Branch preload instructions (sec. 3.1) vs hardware bulk preload (gain vs config 1)", pts)
}

// sharing measures multiprogramming interference with and without the
// BTB2 (two LSPR workloads time sliced on one processor, like Table 4's
// trace 5).
func sharing(insts int) {
	fmt.Println("Multiprogramming: two LSPR workloads time-sliced on one processor")
	a, err := workload.ByName("zos-lspr-cb84", insts/2)
	if err != nil {
		panic(err)
	}
	b, err := workload.ByName("zos-lspr-ims", insts/2)
	if err != nil {
		panic(err)
	}
	params := engine.DefaultParams()
	const quantum = 20_000
	// An ordered slice, not a map: the report rows must print in the
	// same order on every run.
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"config 1 (no BTB2)", core.OneLevelConfig()},
		{"config 2 (BTB2)", core.DefaultConfig()},
	} {
		name, cfg := c.name, c.cfg
		r := sim.SharingStudy(a, b, quantum, cfg, params, name)
		fmt.Printf("  %-20s solo CPI %.4f, mixed CPI %.4f, interference %+.2f%%\n",
			name, r.SoloCPI, r.MixedCPI, r.InterferencePct)
	}
}

// btbpSize sweeps the preload table's capacity.
func btbpSize(insts int) {
	pts := must(sim.SweepBTBPSize(sweepProfiles(insts), engine.DefaultParams(), []int{1, 2, 4, 6, 8}))
	report.Sweep(os.Stdout, "Design knob: BTBP capacity (avg CPI improvement vs config 1)", pts)
}

// installDelay sweeps the surprise-install write latency.
func installDelay(insts int) {
	pts := must(sim.SweepInstallDelay(sweepProfiles(insts), engine.DefaultParams(), []uint64{6, 12, 24, 48, 96}))
	report.Sweep(os.Stdout, "Design knob: surprise-install write latency", pts)
}

// faults runs the soft-error degradation study: accuracy and CPI under
// rising fault rates, unprotected vs parity-protected arrays.
func faults(insts int) {
	prof, err := workload.ByName("zos-daytrader-dbserv", insts)
	if err != nil {
		panic(err)
	}
	pts := must(sim.FaultStudy(prof, engine.DefaultParams(),
		[]float64{0.1, 1, 10, 100, 1000}))
	report.FaultTable(os.Stdout,
		"Soft-error degradation on zos-daytrader-dbserv (config 2)", pts)
}

// locality prints each trace's branch re-reference profile: the
// distribution that decides which hierarchy level catches each reuse,
// i.e. why Table 4's traces are BTB2 candidates.
func locality(insts int) {
	fmt.Println("Branch re-reference locality (median distance; share caught per level)")
	fmt.Printf("  %-26s %10s %8s %8s %8s %8s\n",
		"trace", "median", "BTBP", "+BTB1", "+BTB2", "beyond")
	for _, p := range workload.Table4Profiles(insts) {
		src := workload.New(p)
		h := analysis.BranchReuse(src)
		st := trace.Measure(src)
		ipb := float64(st.Instructions) / float64(st.Branches)
		cov := h.Coverage(ipb)
		fmt.Printf("  %-26s %10d %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			p.Name, h.Median(), cov.BTBPPct, cov.BTB1Pct, cov.BTB2Pct, cov.BeyondPct)
	}
}

// areaStudy prints the Section 6 SRAM-vs-eDRAM density analysis and the
// dynamic-energy comparison from one representative run.
func areaStudy(insts int) {
	fmt.Println("Future work (sec. 6): technology / area / energy analysis")
	type point struct {
		name string
		cfg  core.Config
		tech area.Technology
	}
	points := []point{
		{"config 2, SRAM BTB2 (shipping)", core.DefaultConfig(), area.SRAM},
		{"config 2, eDRAM BTB2", core.DefaultConfig(), area.EDRAM},
		{"config 3, 24k SRAM BTB1", core.LargeOneLevelConfig(), area.SRAM},
		{"config 1, no BTB2", core.OneLevelConfig(), area.SRAM},
	}
	fmt.Printf("  %-32s %10s %10s %14s\n", "design point", "capacity", "mm^2", "preds/mm^2")
	for _, pt := range points {
		r := area.Analyze(pt.cfg, pt.tech)
		fmt.Printf("  %-32s %10d %10.3f %14.0f\n", pt.name, r.Capacity, r.TotalMm2, r.PredictionsPerMm2)
	}

	// Energy: one run of the headline trace per configuration.
	prof, err := workload.ByName("zos-daytrader-dbserv", insts)
	if err != nil {
		panic(err)
	}
	fmt.Println("  dynamic BTB energy on zos-daytrader-dbserv:")
	for _, pt := range points {
		res := engine.Run(workload.New(prof), pt.cfg, engine.DefaultParams(), pt.name)
		e := area.EstimateEnergy(pt.cfg, res.Metrics, pt.tech, res.Cycles)
		fmt.Printf("  %-32s %8.1f uJ (dyn %5.1f + leak %5.1f), %6.2f nJ/1k-insts, CPI %.4f\n",
			pt.name, e.TotalPJ()/1e6, e.DynamicPJ()/1e6, e.StaticPJ()/1e6,
			e.TotalPJ()/1e3/(float64(res.Instructions)/1000), res.CPI())
	}
}

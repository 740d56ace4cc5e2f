package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// Workload names, as passed to --workload.
const (
	wlSweep = "sweep_generate"
	wlFig2  = "fig2_replay"
	wlFault = "fault_study"
)

var workloadNames = []string{wlSweep, wlFig2, wlFault}

// defaultRecords is each workload's records per unit: long enough that
// one study takes about a second on a 2-core host, so a 10 s run times
// several studies.
var defaultRecords = map[string]int{wlSweep: 500_000, wlFig2: 300_000, wlFault: 300_000}

// faultRates are the fault study's base rates (faults per million entry
// reads), the ones `experiments -only faults` prints.
var faultRates = []float64{0.1, 1, 10, 100, 1000}

// study is one benchmark workload. A run sets it up, runs studies
// closed-loop (each starts when the previous one has finished) and
// checks every study against the serial oracle, outside the timed
// region.
type study interface {
	// setUp builds the study's inputs under dir and the serial oracle's
	// results for them, replacing earlier ones.
	setUp(dir string) error
	// run executes one untraced study and returns the records simulated,
	// warmup included.
	run(ctx context.Context) int64
	// runTraced executes one study and charges its worker time to layers.
	runTraced(ctx context.Context) (split, error)
	// check compares the last study's results with the oracle set-up
	// computed and returns the units attempted and the units that failed
	// or differ.
	check() (attempted, failed int)
	// probe is the profile and parameters the isolated layer probes use.
	probe() (workload.Profile, engine.Params)
	// layerMetrics writes the metrics read off the last study's results.
	layerMetrics(m map[string]float64)
}

func newStudy(name string, workers, records int, seed int64) (study, error) {
	switch name {
	case wlSweep:
		return &sweepStudy{unitRunner: unitRunner{workers: workers, records: records}, seed: seed}, nil
	case wlFig2:
		return &fig2Study{unitRunner: unitRunner{workers: workers, records: records}, seed: seed}, nil
	case wlFault:
		prof := profiles(records, seed)[10] // zos-daytrader-dbserv
		return &faultStudy{prof: prof, params: studyParams(records, 0)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// profiles returns the Table 4 profiles at the given length with every
// seed offset by seed; 0 keeps the committed seeds. The fault study's
// injector seed is the profile seed, so it follows.
func profiles(records int, seed int64) []workload.Profile {
	ps := workload.Table4Profiles(records)
	for i := range ps {
		ps[i].Seed += seed
	}
	return ps
}

// studyParams is engine.DefaultParams with the given warmup (0 keeps
// the default), capped at a third of the trace so short test runs still
// reach a steady state.
func studyParams(records int, warmup int64) engine.Params {
	p := engine.DefaultParams()
	if warmup > 0 {
		p.WarmupInstructions = warmup
	}
	if p.WarmupInstructions >= int64(records) {
		p.WarmupInstructions = int64(records) / 3
	}
	return p
}

// unitRunner runs a unit list on the work-stealing pool and checks it
// against sim.RunUnitsSerial, run once at set-up.
type unitRunner struct {
	workers int
	records int // per unit
	units   []sim.Unit
	// files holds, per unit, the trace file its source opened, closed
	// after each study.
	files []*trace.FileSource

	last    []engine.Result
	lastErr error
	oracle  []engine.Result
}

// reset installs a new unit list and runs the serial oracle over it.
func (r *unitRunner) reset(units []sim.Unit) {
	r.units = units
	r.files = make([]*trace.FileSource, len(units))
	var err error
	r.oracle, err = sim.RunUnitsSerial(units)
	r.closeFiles()
	if err != nil {
		// The failed units keep zero results, which check counts.
		fmt.Fprintln(os.Stderr, "studybench: serial oracle:", err)
	}
}

func (r *unitRunner) run(ctx context.Context) int64 {
	r.last, r.lastErr = sim.RunUnits(ctx, r.workers, r.units)
	r.closeFiles()
	return int64(len(r.units)) * int64(r.records)
}

func (r *unitRunner) runTraced(ctx context.Context, fillMetric string) (split, error) {
	times := make([]unitTimes, len(r.units))
	units := timedUnits(r.units, times)
	tr := span.NewTrace()
	var st sim.ShardStats
	r.last, st, r.lastErr = sim.RunUnitsTraced(ctx, r.workers, units, tr)
	r.closeFiles()
	return unitSplit(units, times, st, tr.Events(), r.records, fillMetric)
}

func (r *unitRunner) check() (attempted, failed int) {
	if r.lastErr != nil {
		fmt.Fprintln(os.Stderr, "studybench:", r.lastErr)
	}
	for i := range r.units {
		diffs := sim.DiffResults(r.units[i].Label, r.oracle[i], r.last[i])
		// A unit that failed on both paths leaves two equal zero results.
		if len(diffs) > 0 || r.oracle[i].Instructions == 0 {
			failed++
			if len(diffs) > 0 {
				fmt.Fprintln(os.Stderr, "studybench: oracle mismatch:", diffs[0])
			}
		}
	}
	return len(r.units), failed
}

func (r *unitRunner) closeFiles() {
	for i, f := range r.files {
		if f != nil {
			f.Close() // read-only: nothing to lose
			r.files[i] = nil
		}
	}
}

// sweepStudy is the Figure 5 BTB2 capacity sweep on synthetic sources,
// the unit geometry of perfstat's capacity_sweep: two Table 4 profiles,
// each at the one-level base config plus five BTB2 row counts.
type sweepStudy struct {
	unitRunner
	seed int64
}

var sweepRowCounts = []int{512, 1024, 2048, 4096, 8192}

func (s *sweepStudy) profiles() []workload.Profile {
	all := profiles(s.records, s.seed)
	return []workload.Profile{all[0], all[10]}
}

func (s *sweepStudy) params() engine.Params { return studyParams(s.records, 50_000) }

func (s *sweepStudy) setUp(string) error {
	params := s.params()
	var units []sim.Unit
	for _, p := range s.profiles() {
		units = append(units, sim.ProfileUnit(p, core.OneLevelConfig(), params, "base"))
		for _, rows := range sweepRowCounts {
			cfg := core.DefaultConfig()
			cfg.BTB2 = sim.BTB2Geometry(rows)
			units = append(units, sim.ProfileUnit(p, cfg, params, fmt.Sprintf("btb2-%drows", rows)))
		}
	}
	s.reset(units)
	return nil
}

func (s *sweepStudy) runTraced(ctx context.Context) (split, error) {
	return s.unitRunner.runTraced(ctx, "workload.gen_ns_per_record")
}

func (s *sweepStudy) probe() (workload.Profile, engine.Params) { return s.profiles()[0], s.params() }

func (s *sweepStudy) layerMetrics(m map[string]float64) {
	coreMetrics(m, s.last)
	m["model.fig2_avg_btb2_improvement_pct"] = 0 // not a Figure 2 study
	m["model.fig2_avg_effectiveness_pct"] = 0
}

// fig2Study is the Figure 2 study: every Table 4 profile under the
// three Table 3 configs, each unit streaming a ZBPT trace recorded at
// set-up through trace.FileSource.
type fig2Study struct {
	unitRunner
	seed int64
	// genTime and genRecords measure trace generation during set-up,
	// the only place this study generates.
	genTime    time.Duration
	genRecords int64
}

var table3 = []struct {
	name string
	cfg  func() core.Config
}{
	{sim.ConfigNoBTB2, core.OneLevelConfig},
	{sim.ConfigBTB2, core.DefaultConfig},
	{sim.ConfigLargeL1, core.LargeOneLevelConfig},
}

func (s *fig2Study) setUp(dir string) error {
	params := studyParams(s.records, 0)
	profs := profiles(s.records, s.seed)
	s.genTime, s.genRecords = 0, 0
	var units []sim.Unit
	for i, p := range profs {
		path := filepath.Join(dir, fmt.Sprintf("%02d-%s.zbpt", i, p.Name))
		if err := s.record(path, p); err != nil {
			return err
		}
		for _, c := range table3 {
			k := len(units)
			units = append(units, sim.Unit{
				Label: p.Name + "/" + c.name,
				NewSource: func() trace.Source {
					fs, err := trace.OpenFileSource(path, 0)
					if err != nil {
						// The scheduler reports a panicking unit as that
						// unit's error, which check counts as failed.
						panic(err)
					}
					s.files[k] = fs
					return fs
				},
				Config:     c.cfg(),
				Params:     params,
				ConfigName: c.name,
			})
		}
	}
	s.reset(units)
	return nil
}

// record generates p's trace and writes it to path in ZBPT format.
func (s *fig2Study) record(path string, p workload.Profile) error {
	src := workload.New(p)
	t0 := time.Now()
	ins := trace.Collect(src)
	s.genTime += time.Since(t0)
	s.genRecords += int64(len(ins))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("record trace: %w", err)
	}
	if _, err := trace.WriteSlice(f, src.Name(), ins); err != nil {
		f.Close()
		return fmt.Errorf("record trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("record trace %s: %w", path, err)
	}
	return nil
}

func (s *fig2Study) runTraced(ctx context.Context) (split, error) {
	return s.unitRunner.runTraced(ctx, "trace.decode_ns_per_record")
}

func (s *fig2Study) probe() (workload.Profile, engine.Params) {
	return profiles(s.records, s.seed)[0], studyParams(s.records, 0)
}

func (s *fig2Study) layerMetrics(m map[string]float64) {
	coreMetrics(m, s.last)
	m["workload.gen_ns_per_record"] = ratio(ns(s.genTime), float64(s.genRecords))
	cs := make([]sim.Comparison, len(s.last)/3)
	for i := range cs {
		cs[i] = sim.Comparison{Base: s.last[3*i], BTB2: s.last[3*i+1], LargeBTB1: s.last[3*i+2]}
	}
	m["model.fig2_avg_btb2_improvement_pct"] = sim.AverageBTB2Improvement(cs)
	m["model.fig2_avg_effectiveness_pct"] = sim.AverageEffectiveness(cs)
}

// coreMetrics writes the modelled hierarchy ratios summed over results.
func coreMetrics(m map[string]float64, results []engine.Result) {
	var preds, btb1, reads, moved, surprises, insts int64
	for i := range results {
		s := results[i].Metrics
		if s == nil {
			continue
		}
		preds += s.Counter("hier_predictions_total")
		btb1 += s.Counter("hier_btb1_hits_total")
		reads += s.Counter("hier_transfer_reads_total")
		moved += s.Counter("hier_transferred_hits_total")
		surprises += s.Counter("hier_surprise_installs_total")
		insts += s.Counter("engine_instructions_total")
	}
	m["core.btb1_hit_frac"] = ratio(float64(btb1), float64(preds))
	m["core.transfer_reads_per_kinst"] = ratio(1000*float64(reads), float64(insts))
	m["core.transferred_hits_per_read"] = ratio(float64(moved), float64(reads))
	m["core.surprise_installs_per_kinst"] = ratio(1000*float64(surprises), float64(insts))
}

// faultStudy is sim.FaultStudy on one profile: a fault-free run plus
// every rate under both protections, on the study's own pool.
type faultStudy struct {
	prof   workload.Profile
	params engine.Params

	last    []sim.FaultPoint
	lastErr error

	// The serial recomputation set-up makes: the oracle points, plus the
	// isolated host time of each run's engine (the fault-free one first)
	// and of one source build and generation.
	oracle     []sim.FaultPoint
	clean      engine.Result
	build, gen time.Duration
	runTimes   []time.Duration
}

// setUp recomputes the oracle: the study itself makes its own sources.
func (s *faultStudy) setUp(string) error {
	s.recompute()
	return nil
}

func (s *faultStudy) runs() int { return 1 + 2*len(faultRates) }

func (s *faultStudy) run(context.Context) int64 {
	s.last, s.lastErr = sim.FaultStudy(s.prof, s.params, faultRates)
	return int64(s.runs()) * int64(s.prof.Instructions)
}

// runTraced times the study as run does: the study builds its own
// sources and pool, so there is nothing to wrap. Its busy time is the
// process's CPU time over the study, which the pool's workers cannot
// exceed; it is charged to build, generation and engine in the shares
// the serial recomputation measured in isolation.
func (s *faultStudy) runTraced(ctx context.Context) (split, error) {
	cpu0, err := processCPU()
	if err != nil {
		return split{}, err
	}
	t0 := time.Now()
	records := s.run(ctx)
	wall := time.Since(t0)
	cpu1, err := processCPU()
	if err != nil {
		return split{}, err
	}
	busy := cpu1 - cpu0
	runs := time.Duration(s.runs())
	isoEngine := time.Duration(0)
	for _, d := range s.runTimes {
		isoEngine += d
	}
	iso := float64(runs*(s.build+s.gen) + isoEngine)
	sp := split{
		workers:    runtime.GOMAXPROCS(0), // FaultStudy's pool size
		studies:    1,
		units:      s.runs(),
		records:    records,
		fillMetric: "workload.gen_ns_per_record",
		wall:       wall,
		build:      time.Duration(float64(busy) * float64(runs*s.build) / iso),
		fill:       time.Duration(float64(busy) * float64(runs*s.gen) / iso),
	}
	sp.engine = busy - sp.build - sp.fill
	sp.idle = sp.capacity() - busy
	// The pool exposes no worker spans: all idle time counts as tail,
	// including the workers the serial fault-free run leaves waiting.
	sp.tailIdle = sp.idle
	return sp, nil
}

// recompute builds the oracle: every run of the study serially through
// engine.Run over one recorded copy of the trace.
func (s *faultStudy) recompute() {
	s.runTimes = s.runTimes[:0]
	t0 := time.Now()
	src := workload.New(s.prof)
	s.build = time.Since(t0)
	t0 = time.Now()
	slice := trace.NewSliceSource(src.Name(), trace.Collect(src))
	s.gen = time.Since(t0)

	cfg := core.DefaultConfig()
	t0 = time.Now()
	s.clean = engine.Run(slice, cfg, s.params, sim.ConfigBTB2)
	s.runTimes = append(s.runTimes, time.Since(t0))
	cleanCPI := s.clean.CPI()
	s.oracle = make([]sim.FaultPoint, 0, s.runs()-1)
	for _, rate := range faultRates {
		for _, prot := range []fault.Protection{fault.Unprotected, fault.Parity} {
			p := s.params
			p.Fault = fault.ZEC12Rates(uint64(s.prof.Seed), rate, prot)
			t0 = time.Now()
			res := engine.Run(slice, cfg, p, sim.ConfigBTB2)
			s.runTimes = append(s.runTimes, time.Since(t0))
			pt := sim.FaultPoint{
				RatePerM:   rate,
				Protection: prot,
				CPI:        res.CPI(),
				BadRate:    100 * res.Outcomes.BadRate(),
				Stats:      res.Fault,
			}
			if cleanCPI != 0 {
				pt.DeltaCPIPct = 100 * (res.CPI() - cleanCPI) / cleanCPI
			}
			s.oracle = append(s.oracle, pt)
		}
	}
}

func (s *faultStudy) check() (attempted, failed int) {
	if s.lastErr != nil {
		fmt.Fprintln(os.Stderr, "studybench:", s.lastErr)
	}
	for i := range s.oracle {
		if i >= len(s.last) || s.last[i] != s.oracle[i] {
			failed++
			fmt.Fprintf(os.Stderr, "studybench: fault point %d differs from the serial recomputation\n", i)
		}
	}
	return len(s.oracle), failed
}

func (s *faultStudy) probe() (workload.Profile, engine.Params) { return s.prof, s.params }

func (s *faultStudy) layerMetrics(m map[string]float64) {
	coreMetrics(m, []engine.Result{s.clean})
	var st fault.Stats
	for _, pt := range s.last {
		st.Add(pt.Stats)
	}
	m["fault.injected_total"] = float64(st.Injected)
	m["fault.recovered_frac"] = ratio(float64(st.Recovered), float64(st.Injected))
	m["model.fig2_avg_btb2_improvement_pct"] = 0 // not a Figure 2 study
	m["model.fig2_avg_effectiveness_pct"] = 0
}

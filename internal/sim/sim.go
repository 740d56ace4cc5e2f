// Package sim orchestrates simulation studies: the three Table 3
// configurations, per-trace runs, comparisons between configurations
// (Figure 2's improvement and BTB2-effectiveness metrics), and the
// parameter sweeps of Figures 5-7.
package sim

import (
	"context"
	"fmt"
	"sort"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// Config names from Table 3.
const (
	ConfigNoBTB2  = "no-btb2"    // configuration 1: baseline
	ConfigBTB2    = "btb2"       // configuration 2: two-level bulk preload
	ConfigLargeL1 = "large-btb1" // configuration 3: unrealistically large BTB1
)

// Table3 returns the three simulated configurations of Table 3 keyed by
// name.
func Table3() map[string]core.Config {
	return map[string]core.Config{
		ConfigNoBTB2:  core.OneLevelConfig(),
		ConfigBTB2:    core.DefaultConfig(),
		ConfigLargeL1: core.LargeOneLevelConfig(),
	}
}

// Comparison is the Figure 2 measurement for one trace: CPI improvements
// of configurations 2 and 3 over configuration 1, and the BTB2
// effectiveness ratio.
type Comparison struct {
	Trace     string
	Base      engine.Result // configuration 1
	BTB2      engine.Result // configuration 2
	LargeBTB1 engine.Result // configuration 3
}

// BTB2Improvement returns the percent CPI improvement of the two-level
// design over the baseline.
func (c Comparison) BTB2Improvement() float64 { return c.BTB2.Improvement(c.Base) }

// LargeImprovement returns the percent CPI improvement of the 24k BTB1
// over the baseline.
func (c Comparison) LargeImprovement() float64 { return c.LargeBTB1.Improvement(c.Base) }

// Effectiveness returns the BTB2 effectiveness: "the ratio of the
// improvement from adding the BTB2 compared to the improvement from
// adding the unrealistically large BTB1".
func (c Comparison) Effectiveness() float64 {
	li := c.LargeImprovement()
	if li == 0 {
		return 0
	}
	return 100 * c.BTB2Improvement() / li
}

// String renders the comparison as a Figure 2 row.
func (c Comparison) String() string {
	return fmt.Sprintf("%-26s BTB2 %+6.2f%%  largeBTB1 %+6.2f%%  effectiveness %5.1f%%",
		c.Trace, c.BTB2Improvement(), c.LargeImprovement(), c.Effectiveness())
}

// Compare runs all three Table 3 configurations on one trace source.
// The three runs share src, so they run one after another on a
// one-worker pool; a failed run leaves its slot of the Comparison
// zero-valued and is reported in the returned error.
func Compare(src trace.Source, params engine.Params) (Comparison, error) {
	unit := func(cfg core.Config, name string) Unit {
		return Unit{
			Label:      src.Name() + "/" + name,
			NewSource:  func() trace.Source { return src },
			Config:     cfg,
			Params:     params,
			ConfigName: name,
		}
	}
	res, err := RunUnits(context.Background(), 1, []Unit{
		unit(core.OneLevelConfig(), ConfigNoBTB2),
		unit(core.DefaultConfig(), ConfigBTB2),
		unit(core.LargeOneLevelConfig(), ConfigLargeL1),
	})
	return Comparison{Trace: src.Name(), Base: res[0], BTB2: res[1], LargeBTB1: res[2]}, err
}

// Figure2 runs the full Figure 2 study: all 13 Table 4 traces under the
// three configurations, scheduled as 39 independent (config, trace)
// units across the work-stealing pool (each unit uses private engine
// and workload instances, so results are deterministic regardless of
// which worker runs what). instructions <= 0 uses the workload default.
// A unit that fails (panics) leaves its slot of the Comparison
// zero-valued and is reported in the returned error; every other
// result survives.
func Figure2(instructions int, params engine.Params) ([]Comparison, error) {
	profiles := workload.Table4Profiles(instructions)
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{ConfigNoBTB2, core.OneLevelConfig()},
		{ConfigBTB2, core.DefaultConfig()},
		{ConfigLargeL1, core.LargeOneLevelConfig()},
	}
	units := make([]Unit, 0, len(profiles)*len(configs))
	for i := range profiles {
		for _, c := range configs {
			units = append(units, ProfileUnit(profiles[i], c.cfg, params, c.name))
		}
	}
	res, err := RunUnits(context.Background(), 0, units)
	out := make([]Comparison, len(profiles))
	for i := range profiles {
		out[i] = Comparison{
			Trace:     profiles[i].Name,
			Base:      res[3*i],
			BTB2:      res[3*i+1],
			LargeBTB1: res[3*i+2],
		}
	}
	return out, err
}

// AverageBTB2Improvement returns the mean BTB2 improvement across
// comparisons (the quantity Figures 5-7 sweep).
func AverageBTB2Improvement(cs []Comparison) float64 {
	if len(cs) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cs {
		sum += c.BTB2Improvement()
	}
	return sum / float64(len(cs))
}

// AverageEffectiveness returns the mean BTB2 effectiveness.
func AverageEffectiveness(cs []Comparison) float64 {
	if len(cs) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cs {
		sum += c.Effectiveness()
	}
	return sum / float64(len(cs))
}

// SweepPoint is one x/y point of a Figure 5/6/7-style sweep: the average
// BTB2 improvement at one parameter setting.
type SweepPoint struct {
	Label       string  // e.g. "24k (4k x 6)"
	Value       float64 // numeric parameter value (plot x)
	Improvement float64 // average CPI improvement vs configuration 1
	Shipping    bool    // the setting chosen for the hardware
}

// BTB2Geometry builds a BTB2 btb.Config with the given rows (ways fixed
// at 6, 32-byte rows). rows must be a power of two >= 64.
func BTB2Geometry(rows int) btb.Config {
	bits := 0
	for r := rows; r > 1; r >>= 1 {
		bits++
	}
	hi := uint(58 - bits + 1)
	return btb.Config{Name: "BTB2", Rows: rows, Ways: 6, IndexHi: hi, IndexLo: 58}
}

// SweepBTB2Size reproduces Figure 5: the average improvement as the BTB2
// capacity varies. Sizes are total branch capacities (rows x 6). All
// points run as one scheduler invocation with the shared baseline runs
// deduplicated (this is the capacity study the parallel pipeline exists
// for).
func SweepBTB2Size(profiles []workload.Profile, params engine.Params, rowCounts []int) ([]SweepPoint, error) {
	return sweep(profiles, params, rowCounts,
		func(c *core.Config, rows int) { c.BTB2 = BTB2Geometry(rows) },
		func(rows int) SweepPoint {
			return SweepPoint{Label: fmt.Sprintf("%dk (%d x 6)", rows*6/1024, rows),
				Value: float64(rows * 6), Shipping: rows == 4096}
		})
}

// SweepMissDefinition reproduces Figure 6: the average improvement as the
// BTB1-miss search limit varies (the shipping design uses 4 searches /
// 128 bytes).
func SweepMissDefinition(profiles []workload.Profile, params engine.Params, limits []int) ([]SweepPoint, error) {
	return sweep(profiles, params, limits,
		func(c *core.Config, lim int) { c.Miss.SearchLimit = lim },
		func(lim int) SweepPoint {
			return SweepPoint{Label: fmt.Sprintf("%d searches (%dB)", lim, lim*32),
				Value: float64(lim), Shipping: lim == 4}
		})
}

// SweepTrackers reproduces Figure 7: the average improvement as the
// number of BTB2 search trackers varies (the shipping design uses 3).
func SweepTrackers(profiles []workload.Profile, params engine.Params, counts []int) ([]SweepPoint, error) {
	return sweep(profiles, params, counts,
		func(c *core.Config, n int) { c.Tracker.Count = n },
		func(n int) SweepPoint {
			return SweepPoint{Label: fmt.Sprintf("%d trackers", n), Value: float64(n), Shipping: n == 3}
		})
}

// sweep is the one-parameter sweep shape: one variant of the shipping
// configuration per setting (set applies the setting), all measured
// against configuration 1 by averageImprovements, and each labelled by
// point, which leaves Improvement to sweep.
func sweep[T any](profiles []workload.Profile, params engine.Params, settings []T,
	set func(*core.Config, T), point func(T) SweepPoint) ([]SweepPoint, error) {
	variants := make([]core.Config, len(settings))
	for i, v := range settings {
		variants[i] = core.DefaultConfig()
		set(&variants[i], v)
	}
	imps, err := averageImprovements(profiles, params, core.OneLevelConfig(), variants)
	out := make([]SweepPoint, len(settings))
	for i, v := range settings {
		out[i] = point(v)
		out[i].Improvement = imps[i]
	}
	return out, err
}

// averageImprovement runs base and variant configs over all profiles
// through the shard scheduler and averages the CPI improvement. A
// failed unit contributes zero to the average and surfaces in the
// returned error.
func averageImprovement(profiles []workload.Profile, params engine.Params, base, variant core.Config) (float64, error) {
	imps, err := averageImprovements(profiles, params, base, []core.Config{variant})
	return imps[0], err
}

// averageImprovements is the batched sweep core: one scheduler
// invocation covering the shared base configuration once per profile
// plus every variant per profile, returning each variant's average CPI
// improvement over the base. Deduplicating the base runs is what makes
// multi-point sweeps core-bound instead of wall-clock-bound — a
// k-point sweep costs (k+1) x len(profiles) runs instead of 2k x
// len(profiles), all fanned across the work-stealing pool.
func averageImprovements(profiles []workload.Profile, params engine.Params, base core.Config, variants []core.Config) ([]float64, error) {
	np := len(profiles)
	units := make([]Unit, 0, np*(1+len(variants)))
	for i := range profiles {
		units = append(units, ProfileUnit(profiles[i], base, params, "base"))
	}
	for _, v := range variants {
		for i := range profiles {
			units = append(units, ProfileUnit(profiles[i], v, params, "variant"))
		}
	}
	res, err := RunUnits(context.Background(), 0, units)
	out := make([]float64, len(variants))
	if np == 0 {
		return out, err
	}
	for vi := range variants {
		sum := 0.0
		for pi := 0; pi < np; pi++ {
			sum += res[np*(1+vi)+pi].Improvement(res[pi])
		}
		out[vi] = sum / float64(np)
	}
	return out, err
}

// Ablation is one named design-choice variation and its average
// improvement (relative to configuration 1, like the figures).
type Ablation struct {
	Name        string
	Improvement float64
}

// Ablations runs the design-choice studies DESIGN.md calls out: steering
// off, I-cache filter off, exclusivity policies, and the not-taken
// install knob.
func Ablations(profiles []workload.Profile, params engine.Params) ([]Ablation, error) {
	base := core.OneLevelConfig()
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"shipping (semi-exclusive, steered, filtered)", func(*core.Config) {}},
		{"steering disabled (sequential transfers)", func(c *core.Config) { c.UseSteering = false }},
		{"i-cache filter disabled (all misses full search)", func(c *core.Config) { c.Tracker.FilterByICache = false }},
		{"true-exclusive policy", func(c *core.Config) { c.Policy = core.TrueExclusive }},
		{"inclusive policy", func(c *core.Config) { c.Policy = core.Inclusive }},
		{"install not-taken surprises", func(c *core.Config) { c.InstallNotTaken = true }},
		{"BTBP bypassed (installs pollute BTB1)", func(c *core.Config) { c.BypassBTBP = true }},
		{"multi-block transfer chase", func(c *core.Config) { c.MultiBlockTransfer = true }},
	}
	cfgs := make([]core.Config, len(variants))
	for i, v := range variants {
		cfg := core.DefaultConfig()
		v.mutate(&cfg)
		cfgs[i] = cfg
	}
	imps, err := averageImprovements(profiles, params, base, cfgs)
	out := make([]Ablation, 0, len(variants))
	for i, v := range variants {
		out = append(out, Ablation{
			Name:        v.name,
			Improvement: imps[i],
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Improvement > out[j].Improvement })
	return out, err
}

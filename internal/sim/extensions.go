package sim

import (
	"context"
	"fmt"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// The studies in this file cover the paper's Section 6 future-work
// directions: BTB2 congruence-class width, multi-block transfers, and
// alternative BTB1-miss definitions.

// BTB2RowGeometry builds a 24k-entry BTB2 whose rows cover the given
// number of instruction bytes (32 = shipping; 64/128 = the future-work
// trade-off of more tag-matching branches per search vs congruence-class
// overflow). Row count stays at 4096 so total capacity is constant.
func BTB2RowGeometry(rowBytes int) btb.Config {
	var lo uint
	switch rowBytes {
	case 32:
		lo = 58
	case 64:
		lo = 57
	case 128:
		lo = 56
	default:
		panic(fmt.Sprintf("sim: unsupported BTB2 row coverage %d", rowBytes))
	}
	return btb.Config{Name: "BTB2", Rows: 4096, Ways: 6, IndexHi: lo - 11, IndexLo: lo}
}

// SweepRowCoverage measures the Section 6 congruence-class trade-off:
// wider BTB2 rows transfer a 4 KB block in fewer reads (higher bus
// utilization) but can overflow when a sequential code stream carries
// more than 6 ever-taken branches per row.
func SweepRowCoverage(profiles []workload.Profile, params engine.Params, widths []int) ([]SweepPoint, error) {
	return sweep(profiles, params, widths,
		func(c *core.Config, w int) { c.BTB2 = BTB2RowGeometry(w) },
		func(w int) SweepPoint {
			return SweepPoint{Label: fmt.Sprintf("%dB rows (%d reads/block)", w, 4096/w),
				Value: float64(w), Shipping: w == 32}
		})
}

// SweepMissMode compares the Section 3.4 / Section 6 miss-definition
// alternatives: early-speculative, late-precise (decode surprise), and
// their combination.
func SweepMissMode(profiles []workload.Profile, params engine.Params) ([]SweepPoint, error) {
	return sweep(profiles, params, []core.MissMode{core.MissSpeculative, core.MissDecodeSurprise, core.MissBoth},
		func(c *core.Config, m core.MissMode) { c.MissMode = m },
		func(m core.MissMode) SweepPoint {
			return SweepPoint{Label: m.String(), Value: float64(m), Shipping: m == core.MissSpeculative}
		})
}

// MultiBlockStudy measures the bounded multi-block transfer extension
// against the shipping single-block design.
func MultiBlockStudy(profiles []workload.Profile, params engine.Params) ([]SweepPoint, error) {
	return sweep(profiles, params, []bool{false, true},
		func(c *core.Config, on bool) { c.MultiBlockTransfer = on },
		func(on bool) SweepPoint {
			if on {
				return SweepPoint{Label: "multi-block chase", Value: 1}
			}
			return SweepPoint{Label: "single-block (shipping)", Value: 0, Shipping: true}
		})
}

// PreloadStudy compares the software branch-preload facility (BPP-style
// hint instructions at function entries, a BTBP write source per Section
// 3.1) against the hardware bulk preload, on the same program topology:
//
//	base          — config 1, no hints
//	sw-preload    — config 1, hinted trace (hint instructions cost
//	                dispatch slots, so their overhead is included)
//	hw-btb2       — config 2, no hints
//	sw+hw         — config 2, hinted trace
//
// A failed run zeroes its point (or, for the base run, every point) and
// is reported in the returned error.
func PreloadStudy(profile workload.Profile, params engine.Params) ([]SweepPoint, error) {
	plain := profile
	plain.PreloadHints = false
	hinted := profile
	hinted.PreloadHints = true

	rows := []struct {
		label string
		prof  workload.Profile
		cfg   core.Config
		ship  bool
	}{
		{"sw preload only (config 1 + hints)", hinted, core.OneLevelConfig(), false},
		{"hw bulk preload (config 2)", plain, core.DefaultConfig(), true},
		{"sw + hw combined (config 2 + hints)", hinted, core.DefaultConfig(), false},
	}
	units := []Unit{ProfileUnit(plain, core.OneLevelConfig(), params, "base")}
	for _, r := range rows {
		units = append(units, ProfileUnit(r.prof, r.cfg, params, r.label))
	}
	res, err := RunUnits(context.Background(), 0, units)
	out := make([]SweepPoint, 0, len(rows))
	for i, r := range rows {
		out = append(out, SweepPoint{
			Label:       r.label,
			Value:       float64(i),
			Improvement: res[i+1].Improvement(res[0]),
			Shipping:    r.ship,
		})
	}
	return out, err
}

// SharingResult quantifies multiprogramming interference in the branch
// predictor: the paper's Table 4 includes exactly such a mix ("two of
// the LSPR workloads time sliced on one processor") and its background
// section calls out aliasing "among branches in different threads".
type SharingResult struct {
	Name string
	// SoloCPI is the instruction-weighted CPI of the workloads run each
	// on a private predictor; MixedCPI shares one predictor with
	// time-slicing. The gap is predictor interference.
	SoloCPI  float64
	MixedCPI float64
	// InterferencePct is the CPI degradation from sharing.
	InterferencePct float64
}

// SharingStudy runs two workloads alone and time-sliced (quantum
// instructions per slice) under one configuration, returning the
// interference measurement. The three runs are units of one
// worker-pool invocation; a failed run is reported in the returned
// error.
func SharingStudy(a, b workload.Profile, quantum int, cfg core.Config,
	params engine.Params, name string) (SharingResult, error) {
	res, err := RunUnits(context.Background(), 0, []Unit{
		ProfileUnit(a, cfg, params, name),
		ProfileUnit(b, cfg, params, name),
		{
			Label: a.Name + "+" + b.Name + "/" + name,
			NewSource: func() trace.Source {
				return trace.NewInterleaveSource(quantum, workload.New(a), workload.New(b))
			},
			Config:     cfg,
			Params:     params,
			ConfigName: name,
		},
	})
	ra, rb, rm := res[0], res[1], res[2]
	soloCycles := ra.Cycles + rb.Cycles
	soloInsts := float64(ra.Instructions + rb.Instructions)

	out := SharingResult{
		Name:     name,
		SoloCPI:  soloCycles / soloInsts,
		MixedCPI: rm.CPI(),
	}
	out.InterferencePct = 100 * (out.MixedCPI - out.SoloCPI) / out.SoloCPI
	return out, err
}

// BTBPGeometry builds a BTBP btb.Config with the given ways at the
// shipping 128-row geometry (index bits 52:58).
func BTBPGeometry(ways int) btb.Config {
	return btb.Config{Name: "BTBP", Rows: 128, Ways: ways, IndexHi: 52, IndexLo: 58}
}

// SweepBTBPSize varies the preload table's capacity (ways at the fixed
// 128-row geometry). The BTBP is the hierarchy's linchpin — see the
// BTBP-bypass ablation — so its sizing is worth a curve: too small and
// installs die before promotion; the shipping design uses 6 ways (768
// branches).
func SweepBTBPSize(profiles []workload.Profile, params engine.Params, ways []int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, w := range ways {
		base := core.OneLevelConfig()
		base.BTBP = BTBPGeometry(w)
		cfg := core.DefaultConfig()
		cfg.BTBP = base.BTBP
		imp, err := averageImprovement(profiles, params, base, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, SweepPoint{
			Label:       fmt.Sprintf("%d branches (128 x %d)", 128*w, w),
			Value:       float64(128 * w),
			Improvement: imp,
			Shipping:    w == 6,
		})
	}
	return out, nil
}

// SweepInstallDelay varies the surprise-install write latency: how long
// a resolved surprise branch takes to become visible in the BTBP. The
// latency class of Figure 4 ("due to latency for writing surprise
// branches into the prediction tables") scales with it.
func SweepInstallDelay(profiles []workload.Profile, params engine.Params, delays []uint64) ([]SweepPoint, error) {
	return sweep(profiles, params, delays,
		func(c *core.Config, d uint64) { c.SurpriseInstallDelay = d },
		func(d uint64) SweepPoint {
			return SweepPoint{Label: fmt.Sprintf("%d cycles", d), Value: float64(d), Shipping: d == 24}
		})
}

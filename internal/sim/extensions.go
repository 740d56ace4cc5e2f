package sim

import (
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
	variants := make([]core.Config, len(widths))
	for i, w := range widths {
		cfg := core.DefaultConfig()
		cfg.BTB2 = BTB2RowGeometry(w)
		variants[i] = cfg
	}
	imps, err := averageImprovements(profiles, params, core.OneLevelConfig(), variants)
	out := make([]SweepPoint, 0, len(widths))
	for i, w := range widths {
		out = append(out, SweepPoint{
			Label:       fmt.Sprintf("%dB rows (%d reads/block)", w, 4096/w),
			Value:       float64(w),
			Improvement: imps[i],
			Shipping:    w == 32,
		})
	}
	return out, err
}

// SweepMissMode compares the Section 3.4 / Section 6 miss-definition
// alternatives: early-speculative, late-precise (decode surprise), and
// their combination.
func SweepMissMode(profiles []workload.Profile, params engine.Params) ([]SweepPoint, error) {
	modes := []core.MissMode{core.MissSpeculative, core.MissDecodeSurprise, core.MissBoth}
	variants := make([]core.Config, len(modes))
	for i, m := range modes {
		cfg := core.DefaultConfig()
		cfg.MissMode = m
		variants[i] = cfg
	}
	imps, err := averageImprovements(profiles, params, core.OneLevelConfig(), variants)
	out := make([]SweepPoint, 0, len(modes))
	for i, m := range modes {
		out = append(out, SweepPoint{
			Label:       m.String(),
			Value:       float64(m),
			Improvement: imps[i],
			Shipping:    m == core.MissSpeculative,
		})
	}
	return out, err
}

// MultiBlockStudy measures the bounded multi-block transfer extension
// against the shipping single-block design.
func MultiBlockStudy(profiles []workload.Profile, params engine.Params) ([]SweepPoint, error) {
	settings := []bool{false, true}
	variants := make([]core.Config, len(settings))
	for i, on := range settings {
		cfg := core.DefaultConfig()
		cfg.MultiBlockTransfer = on
		variants[i] = cfg
	}
	imps, err := averageImprovements(profiles, params, core.OneLevelConfig(), variants)
	out := make([]SweepPoint, 0, len(settings))
	for i, on := range settings {
		label := "single-block (shipping)"
		if on {
			label = "multi-block chase"
		}
		out = append(out, SweepPoint{
			Label:       label,
			Value:       b2f(on),
			Improvement: imps[i],
			Shipping:    !on,
		})
	}
	return out, err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
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
func PreloadStudy(profile workload.Profile, params engine.Params) []SweepPoint {
	plain := profile
	plain.PreloadHints = false
	hinted := profile
	hinted.PreloadHints = true

	base := engine.Run(workload.New(plain), core.OneLevelConfig(), params, "base")
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
	var out []SweepPoint
	for i, r := range rows {
		res := engine.Run(workload.New(r.prof), r.cfg, params, r.label)
		out = append(out, SweepPoint{
			Label:       r.label,
			Value:       float64(i),
			Improvement: res.Improvement(base),
			Shipping:    r.ship,
		})
	}
	return out
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
// interference measurement.
func SharingStudy(a, b workload.Profile, quantum int, cfg core.Config,
	params engine.Params, name string) SharingResult {
	ra := engine.Run(workload.New(a), cfg, params, name)
	rb := engine.Run(workload.New(b), cfg, params, name)
	soloCycles := ra.Cycles + rb.Cycles
	soloInsts := float64(ra.Instructions + rb.Instructions)

	mix := trace.NewInterleaveSource(quantum, workload.New(a), workload.New(b))
	rm := engine.Run(mix, cfg, params, name)

	res := SharingResult{
		Name:     name,
		SoloCPI:  soloCycles / soloInsts,
		MixedCPI: rm.CPI(),
	}
	res.InterferencePct = 100 * (res.MixedCPI - res.SoloCPI) / res.SoloCPI
	return res
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
	variants := make([]core.Config, len(delays))
	for i, d := range delays {
		cfg := core.DefaultConfig()
		cfg.SurpriseInstallDelay = d
		variants[i] = cfg
	}
	imps, err := averageImprovements(profiles, params, core.OneLevelConfig(), variants)
	out := make([]SweepPoint, 0, len(delays))
	for i, d := range delays {
		out = append(out, SweepPoint{
			Label:       fmt.Sprintf("%d cycles", d),
			Value:       float64(d),
			Improvement: imps[i],
			Shipping:    d == 24,
		})
	}
	return out, err
}

package sim

import (
	"context"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/workload"
)

// HardwareResult is one row of the Figure 3 study: the BTB2's CPI
// improvement in simulation mode (infinite L2, as the paper's C++ model)
// versus hardware mode (finite L2 and beyond, as the real zEC12). The
// paper measured 8.5% (sim) vs 5.3% (hardware) on single-core
// WASDB+CBW2, and 3.4% on the 4-core Web CICS/DB2 — the gap attributed
// to cache levels the simulation treated as infinite.
type HardwareResult struct {
	Name         string
	Cores        int
	SimGain      float64
	HardwareGain float64
}

// Figure3 reproduces the hardware study: WASDB+CBW2 on one core, and Web
// CICS/DB2 on four cores (four independent per-core instances with
// distinct seeds, aggregated by total cycles — system throughput). All
// 20 runs are units of one worker-pool invocation; a failed unit
// zeroes the gains it feeds and is reported in the returned error.
func Figure3(instructions int, params engine.Params) ([]HardwareResult, error) {
	hw := params
	hw.FiniteL2 = true

	// Single-core WASDB+CBW2.
	wasdb, err := workload.ByName("zos-lspr-wasdb-cbw2", instructions)
	if err != nil {
		return nil, err
	}
	// Four-core Web CICS/DB2: four per-core instances, distinct seeds.
	base, err := workload.ByName("zos-lspr-cicsdb2", instructions)
	if err != nil {
		return nil, err
	}
	cores := make([]workload.Profile, 4)
	for i := range cores {
		cores[i] = base
		cores[i].Name = "web-cicsdb2-core" + string(rune('0'+i))
		cores[i].Seed = base.Seed + int64(100*(i+1))
	}

	// Per study, the simulation-mode runs then the hardware-mode runs:
	// config 1 and config 2 on every core.
	var units []Unit
	for _, profiles := range [][]workload.Profile{{wasdb}, cores} {
		for _, pp := range []engine.Params{params, hw} {
			for _, p := range profiles {
				units = append(units,
					ProfileUnit(p, core.OneLevelConfig(), pp, ConfigNoBTB2),
					ProfileUnit(p, core.DefaultConfig(), pp, ConfigBTB2))
			}
		}
	}
	res, err := RunUnits(context.Background(), 0, units)
	out := []HardwareResult{
		{Name: "WASDB+CBW2 (1 core)", Cores: 1},
		{Name: "Web CICS/DB2 (4 cores)", Cores: len(cores)},
	}
	for i := range out {
		n := 2 * out[i].Cores
		out[i].SimGain, out[i].HardwareGain = gainOn(res[:n]), gainOn(res[n:2*n])
		res = res[2*n:]
	}
	return out, err
}

// gainOn takes (config 1, config 2) result pairs, one pair per core,
// and returns the aggregate-throughput improvement: total cycles summed
// across cores.
func gainOn(res []engine.Result) float64 {
	var baseCycles, btb2Cycles, baseInsts, btb2Insts float64
	for i := 0; i+1 < len(res); i += 2 {
		b, v := res[i], res[i+1]
		baseCycles += b.Cycles
		btb2Cycles += v.Cycles
		baseInsts += float64(b.Instructions)
		btb2Insts += float64(v.Instructions)
	}
	if baseCycles == 0 || baseInsts == 0 || btb2Insts == 0 {
		return 0
	}
	baseCPI := baseCycles / baseInsts
	btb2CPI := btb2Cycles / btb2Insts
	return 100 * (baseCPI - btb2CPI) / baseCPI
}

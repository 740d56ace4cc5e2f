// Technology study: the paper's Section 6 argument, quantified. The
// two-level design supports more predictions per square millimetre than
// a single-level SRAM BTB of comparable capacity, and an eDRAM BTB2
// improves both density and energy because the second level is only
// powered while bulk searches run.
package main

import (
	"fmt"

	"bulkpreload/internal/area"
	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/workload"
)

func main() {
	prof, err := workload.ByName("zos-daytrader-dbserv", 600_000)
	if err != nil {
		panic(err)
	}

	type design struct {
		name string
		cfg  core.Config
		tech area.Technology
	}
	designs := []design{
		{"two-level, SRAM BTB2 (zEC12)", core.DefaultConfig(), area.SRAM},
		{"two-level, eDRAM BTB2 (sec. 6)", core.DefaultConfig(), area.EDRAM},
		{"one-level 24k SRAM BTB1", core.LargeOneLevelConfig(), area.SRAM},
	}

	base := engine.Run(workload.New(prof), core.OneLevelConfig(), engine.DefaultParams(), "base")

	fmt.Println("design point                     | gain    | mm^2   | preds/mm^2 | BTB energy")
	fmt.Println("---------------------------------+---------+--------+------------+-----------")
	for _, d := range designs {
		res := engine.Run(workload.New(prof), d.cfg, engine.DefaultParams(), d.name)
		ar := area.Analyze(d.cfg, d.tech)
		en := area.EstimateEnergy(d.cfg, res.Metrics, d.tech, res.Cycles)
		fmt.Printf("%-33s| %+5.2f%%  | %6.3f | %10.0f | %6.1f uJ\n",
			d.name, res.Improvement(base), ar.TotalMm2, ar.PredictionsPerMm2,
			en.TotalPJ()/1e6)
	}
	fmt.Println("\nThe eDRAM second level keeps the two-level design's performance")
	fmt.Println("while more than doubling predictions per mm^2 — the paper's")
	fmt.Println("proposed optimal design point (SRAM BTB1 + eDRAM BTB2).")
}

// Quickstart: build the zEC12 two-level bulk preload branch predictor,
// run a capacity-bound workload through the core model with and without
// the BTB2, and print the paper's headline metric — percent CPI
// improvement.
package main

import (
	"fmt"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/workload"
)

func main() {
	// A workload whose branch working set (~20k branches) exceeds the
	// 4k-entry BTB1 — the regime the BTB2 was designed for.
	profile := workload.Profile{
		Name:                "quickstart",
		UniqueBranches:      20_000,
		TakenFraction:       0.65,
		Instructions:        400_000,
		HotFraction:         0.12,
		WindowFunctions:     64,
		CallsPerTransaction: 8,
		Seed:                1,
	}
	src := workload.New(profile)
	params := engine.DefaultParams()

	// Configuration 1: one-level predictor (4k BTB1 + 768 BTBP).
	base := engine.Run(src, core.OneLevelConfig(), params, "no-btb2")
	// Configuration 2: the same first level backed by the 24k BTB2 with
	// bulk preload, search trackers, and steering.
	twoLevel := engine.Run(src, core.DefaultConfig(), params, "btb2")

	fmt.Printf("workload:               %s (%d instructions)\n", profile.Name, base.Instructions)
	fmt.Printf("one-level CPI:          %.4f  (%.1f%% bad branch outcomes)\n",
		base.CPI(), 100*base.Outcomes.BadRate())
	fmt.Printf("two-level CPI:          %.4f  (%.1f%% bad branch outcomes)\n",
		twoLevel.CPI(), 100*twoLevel.Outcomes.BadRate())
	fmt.Printf("BTB2 CPI improvement:   %.2f%%\n", twoLevel.Improvement(base))
	fmt.Printf("bulk transfers:         %d entries preloaded over %d BTB2 row reads\n",
		twoLevel.Metrics.Counter("hier_transferred_hits_total"),
		twoLevel.Metrics.Counter("hier_transfer_reads_total"))
}

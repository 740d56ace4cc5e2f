// Capacity sweep: the paper's motivating observation is that large
// commercial workloads are limited by predictor *capacity* rather than
// algorithm accuracy. This example sweeps the branch working-set size
// from well under the BTB1's 4k entries to several times beyond it and
// prints where the two-level design starts to pay.
package main

import (
	"context"
	"fmt"
	"strings"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/workload"
)

func main() {
	fmt.Println("BTB2 benefit vs branch working-set size (BTB1 holds 4k branches)")
	fmt.Printf("%10s %12s %12s %10s\n", "branches", "CPI(1-level)", "CPI(2-level)", "gain")
	params := engine.DefaultParams()
	params.WarmupInstructions = 60_000
	sizes := []int{2_000, 4_000, 8_000, 16_000, 32_000, 64_000}
	// Every size under both configurations: one pool, 12 units.
	var units []sim.Unit
	for _, unique := range sizes {
		p := workload.Profile{
			Name:                fmt.Sprintf("sweep-%d", unique),
			UniqueBranches:      unique,
			TakenFraction:       0.65,
			Instructions:        400_000,
			HotFraction:         0.12,
			WindowFunctions:     clamp(unique/300, 8, 128),
			CallsPerTransaction: 8,
			Seed:                int64(unique),
		}
		units = append(units,
			sim.ProfileUnit(p, core.OneLevelConfig(), params, "no-btb2"),
			sim.ProfileUnit(p, core.DefaultConfig(), params, "btb2"))
	}
	res, err := sim.RunUnits(context.Background(), 0, units)
	if err != nil {
		panic(err)
	}
	for i, unique := range sizes {
		base, two := res[2*i], res[2*i+1]
		gain := two.Improvement(base)
		bar := ""
		if gain > 0 {
			bar = strings.Repeat("#", int(gain*4))
		}
		fmt.Printf("%10d %12.4f %12.4f %9.2f%% %s\n",
			unique, base.CPI(), two.CPI(), gain, bar)
	}
	fmt.Println("\nBelow ~4k branches the first level suffices; beyond it the")
	fmt.Println("second level recovers the capacity misses the paper targets.")
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

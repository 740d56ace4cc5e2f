// DayTrader DBServ study: the paper's headline workload. Reproduces the
// Figure 2 bars (CPI improvement of the BTB2 and of the unrealistically
// large BTB1) and the Figure 4 bad-branch-outcome breakdown for this
// trace.
package main

import (
	"fmt"
	"os"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/report"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/workload"
)

func main() {
	profile, err := workload.ByName("zos-daytrader-dbserv", 1_500_000)
	if err != nil {
		panic(err)
	}
	src := workload.New(profile)
	c, err := sim.Compare(src, engine.DefaultParams())
	if err != nil {
		panic(err)
	}

	fmt.Println("DayTrader DBServ (z/OS), the paper's maximum-benefit trace")
	fmt.Printf("  CPI: no BTB2 %.4f | BTB2 %.4f | 24k BTB1 %.4f\n",
		c.Base.CPI(), c.BTB2.CPI(), c.LargeBTB1.CPI())
	fmt.Printf("  BTB2 improvement      %6.2f%%   (paper: 13.8%%)\n", c.BTB2Improvement())
	fmt.Printf("  24k BTB1 improvement  %6.2f%%   (paper: 20.2%%)\n", c.LargeImprovement())
	fmt.Printf("  BTB2 effectiveness    %6.1f%%   (paper: ~68%% on this trace)\n\n", c.Effectiveness())

	report.Figure4(os.Stdout, profile.Name, c.Base, c.BTB2)
	fmt.Println("\n(paper: 25.9% bad without BTB2, 21.9% capacity; 14.3% bad with, 8.1% capacity)")
}

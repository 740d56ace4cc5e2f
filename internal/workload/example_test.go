package workload_test

import (
	"fmt"

	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// Example builds the paper's DayTrader DBServ stand-in and measures its
// Table 4 footprint characteristics.
func Example() {
	profile, err := workload.ByName("zos-daytrader-dbserv", 200_000)
	if err != nil {
		panic(err)
	}
	src := workload.New(profile)
	st := trace.Measure(src)
	fmt.Printf("trace %s: %d instructions\n", st.Name, st.Instructions)
	fmt.Printf("large footprint (>5000 unique taken): %v\n", st.UniqueTaken > 5000)
	density := float64(st.Branches) / float64(st.Instructions)
	fmt.Printf("branch density plausible: %v\n", density > 1.0/9 && density < 1.0/3)
	// Output:
	// trace zos-daytrader-dbserv: 200000 instructions
	// large footprint (>5000 unique taken): true
	// branch density plausible: true
}

// ExampleProfile shows a custom workload profile: the knobs that shape
// the branch working set and its re-reference locality.
func ExampleProfile() {
	p := workload.Profile{
		Name:                "custom",
		UniqueBranches:      8_000, // ~2x the BTB1's capacity
		TakenFraction:       0.7,
		Instructions:        50_000,
		HotFraction:         0.15,
		WindowFunctions:     32,
		CallsPerTransaction: 6,
		Seed:                1,
	}
	st := trace.Measure(workload.New(p))
	fmt.Printf("%d instructions, valid: %v\n", st.Instructions, p.Validate() == nil)
	// Output:
	// 50000 instructions, valid: true
}

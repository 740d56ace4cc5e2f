// Steering demo: shows the Section 3.7 ordering table at work. A
// synthetic control flow enters a 4 KB block in quartile 1, touches a few
// sectors, jumps to quartile 3, and leaves. On the next BTB2 bulk search
// of that block, the demand quartile's active sectors transfer first,
// then the referenced quartile's, then everything else — compared
// side-by-side with the sequential order used on an ordering-table miss.
package main

import (
	"fmt"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/steering"
	"bulkpreload/internal/zaddr"
)

func main() {
	table := steering.NewDefault()
	reg := obs.NewRegistry()
	table.RegisterMetrics(reg, "steering_")
	block := zaddr.Addr(0x40000) // a 4 KB block

	// First visit: enter at sector 9 (quartile 1), execute sectors 9-11,
	// jump into quartile 3 (sectors 24-25), then leave the block.
	fmt.Println("visit 1: executing sectors 9,10,11 (quartile 1) then 24,25 (quartile 3)")
	for _, sector := range []int{9, 10, 11, 24, 25} {
		for off := 0; off < zaddr.SectorBytes; off += 32 {
			table.ObserveComplete(block + zaddr.Addr(sector*zaddr.SectorBytes+off))
		}
	}
	table.ObserveComplete(0x90000) // leaving the block flushes the visit

	// A BTB2 bulk search for a re-entry at sector 9:
	entry := block + 9*zaddr.SectorBytes
	steered := table.Order(entry)

	// The order a table miss would produce (pure sequential wrap).
	miss := steering.NewDefault()
	sequential := miss.Order(entry)

	fmt.Println("\nbulk-transfer sector order on re-entry at sector 9:")
	fmt.Printf("  steered:    %v\n", steered[:12])
	fmt.Printf("  sequential: %v\n", sequential[:12])
	fmt.Println("\nsteered order transfers the demand quartile's active sectors")
	fmt.Println("(9,10,11), then the referenced quartile's (24,25), before any")
	fmt.Println("cold sectors — so the branches about to execute arrive first.")

	st := reg.Snapshot(1)
	fmt.Printf("\nordering table: %d lookups, %d hits, %d installs\n",
		st.Counter("steering_lookups_total"), st.Counter("steering_hits_total"),
		st.Counter("steering_installs_total"))
}

package core_test

import (
	"fmt"

	"bulkpreload/internal/core"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// Example shows the essential hierarchy lifecycle: a surprise branch is
// installed into the BTBP, becomes predictable once the install-write
// latency elapses, and is promoted into the BTB1 on its first prediction.
func Example() {
	h := core.New(core.DefaultConfig())

	branch := trace.Inst{
		Addr: 0x1000, Target: 0x2000, Length: 4,
		Kind: trace.CondDirect, Taken: true,
	}

	// First encounter: the whole first level misses — a surprise branch.
	if _, ok := h.Predict(branch.Addr, 0); !ok {
		fmt.Println("surprise branch")
	}
	h.Resolve(branch, nil, 0) // training installs it (BTBP + BTB2)

	// After the install latency, the BTBP predicts it; using the
	// prediction moves the entry into the BTB1.
	p, ok := h.Predict(branch.Addr, 100)
	fmt.Printf("hit=%v level=%v taken=%v target=%#x\n", ok, p.Level, p.Taken, uint64(p.Target))

	inBTB1, _, inBTB2 := h.Contains(branch.Addr)
	fmt.Printf("promoted to BTB1: %v, copy in BTB2: %v\n", inBTB1, inBTB2)

	// Output:
	// surprise branch
	// hit=true level=BTBP taken=true target=0x2000
	// promoted to BTB1: true, copy in BTB2: true
}

// ExampleHierarchy_ReportBTB1Miss demonstrates a bulk preload: a
// perceived BTB1 miss plus an instruction-cache miss in the same 4 KB
// block trigger a full 128-row BTB2 search whose hits land in the BTBP.
func ExampleHierarchy_ReportBTB1Miss() {
	h := core.New(core.DefaultConfig())
	reg := obs.NewRegistry()
	h.RegisterMetrics(reg)

	// Populate the BTB2 with branches of one 4 KB block via surprise
	// installs (surprise installs write the BTB2 directly).
	for i := 0; i < 8; i++ {
		br := trace.Inst{
			Addr:   zaddr.Addr(0x40000 + i*160),
			Target: 0x41000, Length: 4, Kind: trace.CondDirect, Taken: true,
		}
		h.Resolve(br, nil, 0)
	}

	// A perceived miss + I-cache miss in the block: fully active tracker,
	// full 4 KB search (start delay 7 + pipeline 8 + 128 rows = done well
	// within 200 cycles).
	h.ReportBTB1Miss(0x40000, 1000)
	h.ReportICacheMiss(0x40000, 1000)
	h.Advance(1000 + 200)

	m := reg.Snapshot(1)
	fmt.Printf("bulk-transferred entries: %d\n", m.Counter("hier_transferred_hits_total"))
	// Output:
	// bulk-transferred entries: 8
}

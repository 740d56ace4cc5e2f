package core

import (
	"testing"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/tracker"
	"bulkpreload/internal/zaddr"
)

// The observability layer must be free when it is off: with a nil tracer
// and detail metrics disabled, the predict and install hot paths may not
// allocate. The tests below pin that contract with AllocsPerRun; the
// benchmarks report the same paths for profiling.

// predictSteadyState returns a hierarchy with one branch promoted into
// the BTB1 plus the instruction that re-executes it, after warming every
// internal scratch buffer to capacity.
func predictSteadyState() (*Hierarchy, trace.Inst) {
	h := New(testConfig(), fault.Config{})
	a, tgt := zaddr.Addr(0x4000), zaddr.Addr(0x5000)
	in := takenBranch(a, tgt)
	installBranch(h, in, 0)
	now := uint64(100)
	// First hit comes from the BTBP and promotes; later hits stay in the
	// BTB1. A few rounds warm the history ring.
	for i := 0; i < 8; i++ {
		if p, ok := h.Predict(a, now); ok {
			h.Resolve(in, &p, now)
		}
		now += 10
	}
	return h, in
}

func TestPredictPathNoAllocs(t *testing.T) {
	h, in := predictSteadyState()
	now := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		p, ok := h.Predict(in.Addr, now)
		if !ok {
			t.Fatal("steady-state branch missed the BTB1")
		}
		h.Resolve(in, &p, now)
		now += 10
	})
	if allocs != 0 {
		t.Errorf("predict/resolve hot path allocates %.1f objects/op with observability off, want 0", allocs)
	}
}

// surpriseRound resolves in as a surprise, drains the pending install,
// then evicts the entry so the next round is a surprise again.
func surpriseRound(h *Hierarchy, in trace.Inst, now uint64) {
	h.Resolve(in, nil, now)
	h.Advance(now + h.cfg.SurpriseInstallDelay)
	h.btbp.Invalidate(in.Addr)
	h.btb1.Invalidate(in.Addr)
}

func TestInstallPathNoAllocs(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	in := takenBranch(zaddr.Addr(0x8000), zaddr.Addr(0x9000))
	now := uint64(0)
	// Warm the pending-install queue and BHT/BTB2 rows to capacity.
	for i := 0; i < 8; i++ {
		surpriseRound(h, in, now)
		now += 100
	}
	allocs := testing.AllocsPerRun(1000, func() {
		surpriseRound(h, in, now)
		now += 100
	})
	if allocs != 0 {
		t.Errorf("surprise install path allocates %.1f objects/op with observability off, want 0", allocs)
	}
}

func BenchmarkPredictResolveNoTracer(b *testing.B) {
	h, in := predictSteadyState()
	now := uint64(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := h.Predict(in.Addr, now)
		if !ok {
			b.Fatal("steady-state branch missed the BTB1")
		}
		h.Resolve(in, &p, now)
		now += 10
	}
}

func BenchmarkSurpriseInstallNoDetail(b *testing.B) {
	h := New(testConfig(), fault.Config{})
	in := takenBranch(zaddr.Addr(0x8000), zaddr.Addr(0x9000))
	now := uint64(0)
	for i := 0; i < 8; i++ {
		surpriseRound(h, in, now)
		now += 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		surpriseRound(h, in, now)
		now += 100
	}
}

// transferSteadyState returns a hierarchy whose BTB2 holds branches
// spread over one 4 KB block (none left in the first level), plus the
// branches, after warming every scratch buffer of the transfer path.
func transferSteadyState(cfg Config) (*Hierarchy, []zaddr.Addr, uint64) {
	h := New(cfg, fault.Config{})
	const base = zaddr.Addr(0x40000)
	var branches []zaddr.Addr
	now := uint64(0)
	for k := 0; k < 8; k++ {
		a := base + zaddr.Addr(k*0x120+8)
		branches = append(branches, a)
		installBranch(h, takenBranch(a, a+0x40), now)
		now += 100
	}
	for i := 0; i < 4; i++ {
		now = transferRound(h, branches, now)
	}
	return h, branches, now
}

// transferRound clears the branches from the first level, reports a
// BTB1 miss plus an I-cache miss on their block (a full search), and
// advances cycle by cycle until every row read has drained and
// installed its hits into the BTBP. It returns the next free cycle.
func transferRound(h *Hierarchy, branches []zaddr.Addr, now uint64) uint64 {
	for _, a := range branches {
		h.btbp.Invalidate(a)
		h.btb1.Invalidate(a)
	}
	h.ReportICacheMiss(branches[0], now)
	h.ReportBTB1Miss(branches[0], now)
	end := now + uint64(tracker.StartDelay+tracker.PipeDepth+zaddr.RowsPerBlock)
	for ; now <= end; now++ {
		h.Advance(now)
	}
	return now
}

func TestTransferPathNoAllocs(t *testing.T) {
	steered := testConfig()
	steered.UseSteering = true
	sequential := testConfig()
	sequential.UseSteering = false
	for name, cfg := range map[string]Config{"steered": steered, "sequential": sequential} {
		t.Run(name, func(t *testing.T) {
			h, branches, now := transferSteadyState(cfg)
			hits := counters(h)["hier_transferred_hits_total"]
			allocs := testing.AllocsPerRun(50, func() {
				now = transferRound(h, branches, now)
			})
			if allocs != 0 {
				t.Errorf("BTB2 transfer path allocates %.1f objects per full search, want 0", allocs)
			}
			// AllocsPerRun adds one warm-up call to its 50 runs.
			if got, want := counters(h)["hier_transferred_hits_total"]-hits, int64(51*len(branches)); got != want {
				t.Errorf("%d transferred hits over 51 searches, want %d: the path under test did not run", got, want)
			}
		})
	}
}

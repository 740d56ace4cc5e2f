package analysis

import (
	"strings"
	"testing"

	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

func loopTrace(iters, bodyInsts int) *trace.SliceSource {
	var ins []trace.Inst
	for i := 0; i < iters; i++ {
		addr := zaddr.Addr(0x1000)
		for k := 0; k < bodyInsts; k++ {
			ins = append(ins, trace.Inst{Addr: addr, Length: 4, Kind: trace.NotBranch})
			addr += 4
		}
		ins = append(ins, trace.Inst{Addr: addr, Length: 4, Kind: trace.CondDirect,
			Taken: true, Target: 0x1000, StaticTaken: true})
	}
	return trace.NewSliceSource("loop", ins)
}

func TestBranchReuseLoop(t *testing.T) {
	// A loop with a 10-instruction body: every branch re-reference is at
	// distance 11 (bucket 2^3).
	h := BranchReuse(loopTrace(100, 10))
	if h.Total != 100 || h.First != 1 {
		t.Fatalf("total=%d first=%d", h.Total, h.First)
	}
	if h.Buckets[3] != 99 {
		t.Errorf("bucket[3] = %d, want 99 (distance 11)", h.Buckets[3])
	}
	if m := h.Median(); m < 8 || m > 16 {
		t.Errorf("median = %d, want ~12", m)
	}
}

func TestFractionBeyond(t *testing.T) {
	h := BranchReuse(loopTrace(100, 10))
	if got := h.FractionBeyond(1); got != 1.0 {
		t.Errorf("FractionBeyond(1) = %v, want 1 (all reuses >= 1)", got)
	}
	if got := h.FractionBeyond(1 << 20); got != 0 {
		t.Errorf("FractionBeyond(1M) = %v, want 0", got)
	}
	var empty ReuseHistogram
	if empty.FractionBeyond(1) != 0 || empty.Median() != 0 {
		t.Error("empty histogram not degenerate-safe")
	}
}

func TestHistogramString(t *testing.T) {
	h := BranchReuse(loopTrace(50, 10))
	s := h.String()
	if !strings.Contains(s, "2^3") || !strings.Contains(s, "#") {
		t.Errorf("rendering missing content:\n%s", s)
	}
}

func TestCoverageMonotone(t *testing.T) {
	p, err := workload.ByName("zos-lspr-cb84", 150_000)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.New(p)
	h := BranchReuse(src)
	st := trace.Measure(src)
	ipb := float64(st.Instructions) / float64(st.Branches)
	cov := h.Coverage(ipb)
	// Structure: each level catches at least as much as the smaller one,
	// and shares are sane percentages.
	if !(cov.BTBPPct <= cov.BTB1Pct && cov.BTB1Pct <= cov.BTB2Pct) {
		t.Errorf("coverage not monotone: %+v", cov)
	}
	if cov.BTB2Pct+cov.BeyondPct < 99.9 || cov.BTB2Pct+cov.BeyondPct > 100.1 {
		t.Errorf("BTB2 + beyond != 100: %+v", cov)
	}
	// A Table 4 large-footprint trace must have meaningful mass beyond
	// the first level — that is what makes it a BTB2 candidate.
	beyondL1 := cov.BTB2Pct - cov.BTB1Pct + cov.BeyondPct
	if beyondL1 < 1 {
		t.Errorf("almost no re-references beyond the first level (%+v)", cov)
	}
}

func TestReuseHistogramAddClamps(t *testing.T) {
	var h ReuseHistogram
	h.Add(0)       // clamps to distance 1 -> bucket 0
	h.Add(1 << 40) // clamps to last bucket
	if h.Buckets[0] != 1 || h.Buckets[MaxLog2Distance] != 1 {
		t.Errorf("clamping broken: %v %v", h.Buckets[0], h.Buckets[MaxLog2Distance])
	}
}

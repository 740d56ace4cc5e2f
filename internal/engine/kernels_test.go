package engine

import (
	"testing"

	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// kernelColdCodeSweep returns a single pass over a large stretch of cold
// code with regular branches — the bulk-preload stress case: every block
// is entered exactly twice (two sweeps), so the second sweep measures how
// much the BTB2 recovered.
func kernelColdCodeSweep(blocks4K, sweeps int) *trace.SliceSource {
	var pattern []trace.Inst
	for blk := 0; blk < blocks4K; blk++ {
		base := zaddr.Addr(0x40000 + blk*zaddr.BlockBytes)
		addr := base
		// 16 branch sites per block, evenly spread.
		for s := 0; s < 16; s++ {
			for n := 0; n < 10; n++ {
				pattern = append(pattern, trace.Inst{Addr: addr, Length: 4, Kind: trace.NotBranch})
				addr += 4
			}
			tgt := addr + 24*2
			pattern = append(pattern, trace.Inst{Addr: addr, Length: 4,
				Kind: trace.CondDirect, Taken: true, Target: tgt, StaticTaken: true})
			addr = tgt
		}
		// Jump to the next block (the last block wraps to the first so
		// repeated sweeps form a consistent cycle).
		next := base + zaddr.BlockBytes
		if blk == blocks4K-1 {
			next = 0x40000
		}
		pattern = append(pattern, trace.Inst{Addr: addr, Length: 4,
			Kind: trace.UncondDirect, Taken: true, Target: next, StaticTaken: true})
	}
	var ins []trace.Inst
	for i := 0; i < sweeps; i++ {
		ins = append(ins, pattern...)
	}
	return trace.NewSliceSource("kernel-cold-code-sweep", ins)
}

// kernelAlternating returns a branch whose direction alternates T,NT
// with its loop — bimodal-hostile, PHT-friendly: the pattern history
// disambiguates the two phases.
func kernelAlternating(iters int) *trace.SliceSource {
	const (
		base = zaddr.Addr(0x6000)
		tgt  = zaddr.Addr(0x6100)
	)
	var ins []trace.Inst
	for i := 0; i < iters; i++ {
		taken := i%2 == 0
		br := trace.Inst{Addr: base, Length: 4, Kind: trace.CondDirect,
			Taken: taken, Target: tgt, StaticTaken: true}
		ins = append(ins, br)
		if taken {
			// Target block jumps back.
			ins = append(ins,
				trace.Inst{Addr: tgt, Length: 4, Kind: trace.NotBranch},
				trace.Inst{Addr: tgt + 4, Length: 4, Kind: trace.UncondDirect,
					Taken: true, Target: base, StaticTaken: true})
		} else {
			// Fall-through block jumps back.
			ins = append(ins,
				trace.Inst{Addr: base + 4, Length: 4, Kind: trace.NotBranch},
				trace.Inst{Addr: base + 8, Length: 4, Kind: trace.UncondDirect,
					Taken: true, Target: base, StaticTaken: true})
		}
	}
	return trace.NewSliceSource("kernel-alternating", ins)
}

// kernelCallerCorrelatedReturn returns a callee shared by two call sites
// in strict alternation: its return target flips every execution —
// wrong for a plain BTB target, learnable by the path-indexed CTB.
func kernelCallerCorrelatedReturn(iters int) *trace.SliceSource {
	const (
		callee = zaddr.Addr(0x9000)
		siteA  = zaddr.Addr(0x7000)
		siteB  = zaddr.Addr(0x8000)
		retA   = siteA + 4
		retB   = siteB + 4
	)
	var ins []trace.Inst
	jump := func(from, to zaddr.Addr) trace.Inst {
		return trace.Inst{Addr: from, Length: 4, Kind: trace.UncondDirect,
			Taken: true, Target: to, StaticTaken: true}
	}
	for i := 0; i < iters; i++ {
		site, ret, otherSite := siteA, retA, siteB
		if i%2 == 1 {
			site, ret, otherSite = siteB, retB, siteA
		}
		ins = append(ins,
			trace.Inst{Addr: site, Length: 4, Kind: trace.Call, Taken: true,
				Target: callee, StaticTaken: true},
			trace.Inst{Addr: callee, Length: 4, Kind: trace.NotBranch},
			trace.Inst{Addr: callee + 4, Length: 2, Kind: trace.Return, Taken: true,
				Target: ret, StaticTaken: true},
			jump(ret, otherSite),
		)
	}
	return trace.NewSliceSource("kernel-caller-correlated-return", ins)
}

func TestKernelColdSweepBlocks(t *testing.T) {
	k := kernelColdCodeSweep(8, 1)
	for i, in := range trace.Collect(k) {
		if err := in.Validate(); err != nil {
			t.Fatalf("inst %d: %v", i, err)
		}
	}
	st := trace.Measure(k)
	if st.Blocks4K != 8 {
		t.Errorf("cold sweep spans %d blocks, want 8", st.Blocks4K)
	}
	if st.UniqueBranches != 8*17 { // 16 cond + 1 jump per block
		t.Errorf("unique branches = %d, want %d", st.UniqueBranches, 8*17)
	}
}

package workload

import (
	"fmt"

	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// DefaultInstructions is the default dynamic trace length. The paper's
// traces are "often only portions of an entire benchmark in order to
// minimize trace size and therefore also simulation time"; one million
// instructions sweeps the synthetic working set several times.
const DefaultInstructions = 1_000_000

// Table4Profiles returns the 13 large-footprint workload profiles of
// Table 4, with UniqueBranches / TakenFraction matched to the published
// unique-branch-address counts. instructions <= 0 selects
// DefaultInstructions.
func Table4Profiles(instructions int) []Profile {
	if instructions <= 0 {
		instructions = DefaultInstructions
	}
	mk := func(name string, unique, taken int, window, calls int, hot float64, seed int64) Profile {
		return Profile{
			Name:                name,
			UniqueBranches:      unique,
			TakenFraction:       float64(taken) / float64(unique),
			Instructions:        instructions,
			HotFraction:         hot,
			WindowFunctions:     window,
			CallsPerTransaction: calls,
			Seed:                seed,
		}
	}
	return []Profile{
		// Table 4 rows: name, unique branch addresses, unique taken.
		mk("zos-lspr-cb84", 15_244, 10_963, 48, 6, 0.20, 8401),
		mk("zos-lspr-cicsdb2", 40_667, 27_500, 80, 8, 0.15, 8402),
		mk("zos-lspr-ims", 29_692, 19_673, 64, 8, 0.15, 8403),
		mk("zos-lspr-cbl", 25_622, 16_612, 64, 6, 0.20, 8404),
		mk("zos-lspr-wasdb-cbw2", 114_955, 51_371, 128, 10, 0.10, 8405),
		mk("zos-trade6", 115_509, 56_017, 128, 10, 0.10, 8406),
		mk("tpf-airline", 11_160, 9_317, 32, 6, 0.25, 8407),
		mk("zos-appserv", 26_340, 16_980, 64, 8, 0.15, 8408),
		mk("zos-dbserv", 38_655, 20_020, 80, 8, 0.15, 8409),
		mk("zos-daytrader-appserv", 67_336, 30_165, 96, 10, 0.12, 8410),
		mk("zos-daytrader-dbserv", 34_819, 22_217, 96, 8, 0.10, 8411),
		mk("zlinux-informix", 16_810, 11_765, 48, 6, 0.20, 8412),
		mk("zlinux-trade6", 69_847, 31_897, 112, 10, 0.12, 8413),
	}
}

// ByName returns the Table 4 profile with the given name.
func ByName(name string, instructions int) (Profile, error) {
	for _, p := range Table4Profiles(instructions) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Names lists the Table 4 profile names in order.
func Names() []string {
	ps := Table4Profiles(1)
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// --- Directed microkernels (Table 1 / Table 2 experiments) ---

// KernelSingleTakenLoop returns the fastest Table 1 case: one taken
// branch looping to itself (via a short body), predicted every cycle.
func KernelSingleTakenLoop(iters int) *trace.SliceSource {
	const base = zaddr.Addr(0x2000)
	body := trace.Inst{Addr: base, Length: 4, Kind: trace.NotBranch}
	loop := trace.Inst{Addr: base + 4, Length: 4, Kind: trace.CondDirect,
		Taken: true, Target: base, StaticTaken: true}
	ins := make([]trace.Inst, 0, 2*iters)
	for i := 0; i < iters; i++ {
		ins = append(ins, body, loop)
	}
	// Final iteration falls through.
	ins[len(ins)-1].Taken = false
	return trace.NewSliceSource("kernel-single-taken-loop", ins)
}

// KernelTakenChain returns a chain of distinct taken branches cycling
// through n sites — exercising the MRU / non-MRU taken rates. Each site
// carries a short run of sequential instructions so decode does not
// outrun the Table 1 prediction rates, and sites sit at a 544-byte
// stride (coprime with the BTBP's 128-row indexing) so the chain spreads
// across congruence classes instead of thrashing a few.
func KernelTakenChain(nSites, iters int) *trace.SliceSource {
	const stride = 544
	var sites []trace.Inst
	for i := 0; i < nSites; i++ {
		addr := zaddr.Addr(0x4000 + i*stride)
		next := zaddr.Addr(0x4000 + ((i+1)%nSites)*stride)
		for k := 0; k < 3; k++ {
			sites = append(sites, trace.Inst{Addr: addr + zaddr.Addr(4*k), Length: 4, Kind: trace.NotBranch})
		}
		sites = append(sites, trace.Inst{Addr: addr + 12, Length: 4, Kind: trace.UncondDirect,
			Taken: true, Target: next, StaticTaken: true})
	}
	ins := make([]trace.Inst, 0, len(sites)*iters)
	for i := 0; i < iters; i++ {
		ins = append(ins, sites...)
	}
	return trace.NewSliceSource("kernel-taken-chain", ins)
}

// KernelNotTakenRun returns straight-line code whose conditional branches
// are never taken, two per 32-byte row — the paired not-taken rate.
func KernelNotTakenRun(rows, iters int) *trace.SliceSource {
	var pattern []trace.Inst
	addr := zaddr.Addr(0x8000)
	for rI := 0; rI < rows; rI++ {
		// Each 32-byte row: nb(4) br(4) nb(4) br(4) nb(6) nb(6) nb(4).
		for _, spec := range []struct {
			l  uint8
			br bool
		}{{4, false}, {4, true}, {4, false}, {4, true}, {6, false}, {6, false}, {4, false}} {
			in := trace.Inst{Addr: addr, Length: spec.l, Kind: trace.NotBranch}
			if spec.br {
				in.Kind = trace.CondDirect
				in.Target = addr + 64
			}
			pattern = append(pattern, in)
			addr += zaddr.Addr(spec.l)
		}
	}
	// Loop the pattern with a final taken branch back to the top.
	back := trace.Inst{Addr: addr, Length: 4, Kind: trace.CondDirect,
		Taken: true, Target: 0x8000, StaticTaken: true}
	var ins []trace.Inst
	for i := 0; i < iters; i++ {
		ins = append(ins, pattern...)
		ins = append(ins, back)
	}
	return trace.NewSliceSource("kernel-not-taken-run", ins)
}

// KernelBranchlessRun returns a long run of branch-free code (an
// "unrolled loop") repeated iters times — the case that makes speculative
// BTB1-miss detection fire without any capacity problem (Section 3.4).
func KernelBranchlessRun(bytes, iters int) *trace.SliceSource {
	var pattern []trace.Inst
	addr := zaddr.Addr(0x10000)
	for b := 0; b < bytes; b += 4 {
		pattern = append(pattern, trace.Inst{Addr: addr, Length: 4, Kind: trace.NotBranch})
		addr += 4
	}
	back := trace.Inst{Addr: addr, Length: 4, Kind: trace.CondDirect,
		Taken: true, Target: 0x10000, StaticTaken: true}
	var ins []trace.Inst
	for i := 0; i < iters; i++ {
		ins = append(ins, pattern...)
		ins = append(ins, back)
	}
	return trace.NewSliceSource("kernel-branchless-run", ins)
}

// Package workload synthesizes instruction traces with controlled branch
// footprints. The paper evaluates on proprietary IBM traces (LSPR,
// Trade6, TPF, DayTrader, Informix — Table 4); those are unavailable, so
// this package builds, per trace, a synthetic program whose *unique
// branch site count*, *ever-taken fraction*, and *re-reference locality*
// match the published Table 4 characteristics. Branch-prediction capacity
// behaviour — the paper's subject — is driven by exactly those
// properties.
//
// A program is a set of functions laid out in memory; each function is a
// list of z-style instructions (2/4/6 bytes) with conditional branches
// (biased, some never-taken), loops (backedges), calls, returns and
// indirect branches. A deterministic interpreter walks the program,
// driven by a transaction loop that sweeps a working-set window across
// the function list so that branch re-reference distances exceed the
// BTB1's 4k capacity — the regime where the BTB2 pays off.
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"bulkpreload/internal/trace"
)

// op is one static instruction site, 12 bytes and free of pointers, so
// the garbage collector never scans a compiled program's op array.
// About 81% of the sites are non-branches that use only addr and
// length; what only conditionals need lives in a cond.
type op struct {
	// addr is the instruction address. Programs are laid out from
	// codeBase and Validate bounds their size, so it fits 32 bits.
	addr uint32
	// arg is the kind's argument: the jump target (UncondDirect) or the
	// hinted branch (PreloadHint), as an index into program.ops; the
	// callee (Call), an index into program.fns; the first target
	// (IndirectOther), an index into program.targets; or the cond
	// (CondDirect), an index into program.conds.
	arg         int32
	length      uint8
	kind        trace.Kind
	staticTaken bool // opcode-derived static guess
	// count is an IndirectOther's number of targets. On a CondDirect,
	// count > 0 marks a counted conditional, not taken on every
	// count-th execution and taken otherwise: a loop backedge with
	// count iterations per loop entry (predictable iterations,
	// mispredicted exit — classic loop-branch behaviour) or a periodic
	// conditional with period count (mostly learnable by the direction
	// predictors, unlike pure noise). Keeping it in the op lets the
	// interpreter pick a conditional's rule before its cond arrives.
	count uint8
}

// cond holds a conditional direct branch's own fields: the about 14.5%
// of sites that are conditionals refer to one each, so the op array
// keeps none of them. It holds no pointers.
type cond struct {
	// takenBias is an uncounted conditional's probability of being
	// taken; 0 = never taken.
	takenBias float64
	// target is the jump target: an index into program.ops.
	target int32
	// slot is the Source counter a counted conditional keeps its
	// execution count in.
	slot int32
	// loop marks a counted conditional as a loop backedge rather than a
	// periodic conditional.
	loop bool
}

// fn is one function: the contiguous run ops[first:end] of its
// program's instruction sites.
type fn struct {
	first, end int32
}

// Profile parameterizes one synthetic workload.
type Profile struct {
	Name string
	// UniqueBranches approximates Table 4 column 2 (total unique branch
	// instruction addresses in the program).
	UniqueBranches int
	// TakenFraction approximates column 3 / column 2: the share of
	// branch sites that are ever taken.
	TakenFraction float64
	// Instructions is the dynamic trace length to emit.
	Instructions int
	// HotFraction is the share of dynamic work spent in the small hot
	// set (dispatcher-like functions that stay resident).
	HotFraction float64
	// WindowFunctions is the size of the rotating working-set window in
	// functions; the window advances every transaction, producing
	// re-reference distances that overwhelm the BTB1.
	WindowFunctions int
	// CallsPerTransaction is how many window functions one transaction
	// invokes.
	CallsPerTransaction int
	// Seed fixes all generation randomness.
	Seed int64
	// PreloadHints inserts branch-preload instructions (z BPP-style) at
	// each function entry naming up to three of the function's
	// statically-targetable taken branches — a software analogue of the
	// hardware bulk preload, used by the preload study.
	PreloadHints bool
}

// Validate checks profile sanity.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	if p.UniqueBranches < 16 {
		return fmt.Errorf("workload %s: UniqueBranches %d too small", p.Name, p.UniqueBranches)
	}
	if p.UniqueBranches > maxUniqueBranches {
		return fmt.Errorf("workload %s: UniqueBranches %d above %d", p.Name, p.UniqueBranches, maxUniqueBranches)
	}
	// Negated range tests also reject NaN, which compares false with
	// everything.
	if !(p.TakenFraction > 0 && p.TakenFraction <= 1) {
		return fmt.Errorf("workload %s: TakenFraction %v out of (0,1]", p.Name, p.TakenFraction)
	}
	if p.Instructions <= 0 {
		return fmt.Errorf("workload %s: Instructions must be positive", p.Name)
	}
	if !(p.HotFraction >= 0 && p.HotFraction < 1) {
		return fmt.Errorf("workload %s: HotFraction %v out of [0,1)", p.Name, p.HotFraction)
	}
	if p.WindowFunctions <= 0 || p.CallsPerTransaction <= 0 {
		return fmt.Errorf("workload %s: window/calls must be positive", p.Name)
	}
	return nil
}

// program is the immutable compiled form shared by every Source of its
// profile. All functions' ops live in one backing array, and all their
// conditionals' fields in another.
type program struct {
	profile Profile
	ops     []op
	conds   []cond
	fns     []fn
	// targets holds every indirect branch's target indices into ops.
	targets []int32
	// slots counts the counted conditionals, the sites a Source keeps a
	// counter for.
	slots  int
	hotFns []int // indices of the hot set
}

// programCache holds one compiled program per profile for as long as a
// Source over it is reachable: the studies run many units of each
// profile, and compiling is the costly part of starting one.
type programCache struct {
	mu sync.Mutex
	//zbp:guardedby mu
	byProfile map[Profile]*sharedProgram
}

var programs = programCache{byProfile: make(map[Profile]*sharedProgram)}

// sharedProgram is a compiled program and the count of live Sources
// over it.
type sharedProgram struct {
	prog  *program
	users int
}

// acquireProgram returns the compiled program for p, compiling it if no
// live Source shares it, and counts the caller as a user.
func acquireProgram(p Profile) *program {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	e := programs.byProfile[p]
	if e == nil {
		e = &sharedProgram{prog: buildProgram(p)}
		programs.byProfile[p] = e
	}
	e.users++
	return e.prog
}

// release is the Source finalizer: it drops the source's use of its
// program and forgets the program once no Source uses it.
func (s *Source) release() {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	p := s.prog.profile
	e := programs.byProfile[p]
	if e.users--; e.users == 0 {
		delete(programs.byProfile, p)
	}
}

// average branch sites per generated function; functions then span
// roughly 1-2 KB so a 4 KB bulk-transfer block recovers 2-4 functions.
const branchesPerFn = 14

// opsPerFnEstimate sizes a program's op array up front: slightly above
// the mean op count of a generated function without preload hints (about
// 74.5 on the Table 4 profiles), so programs fill it without regrowing.
const opsPerFnEstimate = 77

// condsPerFnEstimate sizes a program's cond array the same way (about
// 10.8 per function).
const condsPerFnEstimate = 12

// indirectTargetsPerFnEstimate sizes a program's indirect target array
// the same way (about 3.5 per function).
const indirectTargetsPerFnEstimate = 4

// codeBase is the address of a program's first instruction.
const codeBase = 0x100000

// maxUniqueBranches bounds a profile's program so every address fits an
// op's 32-bit addr field: a program has UniqueBranches/branchesPerFn
// functions of at most 782 bytes each, gap included, so the largest
// ends below 1 GB.
const maxUniqueBranches = 1 << 24

// hintSlots is the number of preload-hint slots at each function entry
// of a hinted program.
const hintSlots = 3

// buildProgram compiles a profile into a static program.
func buildProgram(p Profile) *program {
	r := rand.New(rand.NewSource(p.Seed))
	nFns := p.UniqueBranches / branchesPerFn
	if nFns < 4 {
		nFns = 4
	}
	opsPerFn := opsPerFnEstimate
	if p.PreloadHints {
		opsPerFn += hintSlots
	}
	prog := &program{
		profile: p,
		ops:     make([]op, 0, nFns*opsPerFn),
		conds:   make([]cond, 0, nFns*condsPerFnEstimate),
		fns:     make([]fn, 0, nFns),
		targets: make([]int32, 0, nFns*indirectTargetsPerFnEstimate),
	}

	// Lay functions out contiguously from a base address, with small
	// inter-function gaps, so several functions share each 4 KB block.
	addr := uint32(codeBase)
	for i := 0; i < nFns; i++ {
		prog.buildFn(r, addr, i, nFns)
		last := prog.ops[len(prog.ops)-1]
		addr = last.addr + uint32(last.length)
		// Halfword-aligned gap of 0-14 bytes between functions.
		addr += uint32(r.Intn(8) * 2)
	}

	// Hot set: ~3% of functions, at least 2.
	nHot := nFns / 32
	if nHot < 2 {
		nHot = 2
	}
	perm := r.Perm(nFns)
	prog.hotFns = perm[:nHot]
	return prog
}

// buildFn synthesizes function self at base address and appends it to
// the program.
func (prog *program) buildFn(r *rand.Rand, base uint32, self, nFns int) {
	p := prog.profile
	first := len(prog.ops)
	nBranches := branchesPerFn - 3 + r.Intn(7) // 11..17
	addr := base
	emit := func(o op) {
		o.addr = addr
		addr += uint32(o.length)
		prog.ops = append(prog.ops, o)
	}
	// emitCond emits a conditional branch site with its cond; count > 0
	// makes it a counted conditional.
	emitCond := func(c cond, static bool, count int) {
		if count > 0 {
			c.slot = int32(prog.slots)
			prog.slots++
		}
		emit(op{length: 4, kind: trace.CondDirect, staticTaken: static, arg: int32(len(prog.conds)), count: uint8(count)})
		prog.conds = append(prog.conds, c)
	}
	instLen := func() uint8 { return []uint8{2, 4, 4, 4, 6}[r.Intn(5)] }

	// Preload-hint slots at the function entry; the fixup pass below
	// points them at suitable branches (unused slots become plain
	// instructions). Emitting them first keeps the rng stream identical
	// with and without hints, so hinted and unhinted programs share the
	// same topology.
	if p.PreloadHints {
		for i := 0; i < hintSlots; i++ {
			emit(op{length: 4, kind: trace.PreloadHint})
		}
	}

	for b := 0; b < nBranches-1; b++ {
		// A run of 2-7 non-branch instructions.
		for n := 2 + r.Intn(6); n > 0; n-- {
			emit(op{length: instLen(), kind: trace.NotBranch})
		}
		// Then a branch site.
		roll := r.Float64()
		if roll < 0.12 && b <= 1 {
			// Too early in the function for a backedge: emit a plain
			// conditional so the roll does not fall through into the
			// call band (which would concentrate calls at entry points).
			emitCond(cond{takenBias: 0.5, target: -1}, true, 0)
			continue
		}
		switch {
		case roll < 0.12:
			// Loop backedge: a conditional jumping to an earlier op with
			// a fixed trip count. Loop bodies must contain neither call
			// sites (a looped call would multiply the dynamic call rate)
			// nor other backedges (nested loops multiply iteration counts
			// exponentially), so the body floor sits after the last
			// structural op.
			ops := prog.ops[first:]
			floor := 0
			for i := len(ops) - 1; i >= 0; i-- {
				if ops[i].kind == trace.Call || (ops[i].kind == trace.CondDirect && prog.conds[ops[i].arg].loop) {
					floor = i + 1
					break
				}
			}
			if floor >= len(ops)-2 {
				// No room for a loop body: plain conditional instead.
				emitCond(cond{takenBias: 0.5, target: -1}, true, 0)
				break
			}
			tgt := floor + r.Intn(len(ops)-2-floor)
			emitCond(cond{target: int32(first + tgt), loop: true},
				true, 2+r.Intn(3)) // 2..4 iterations per entry
		case roll < 0.16:
			// Call to another function. The call graph is a DAG: callees
			// always have a higher function index, so every call chain
			// reaches call-free functions and drains back to the
			// transaction dispatcher — no attractor cycles can capture
			// the walk. Callees are mostly nearby (call locality clusters
			// related code in neighbouring 4 KB blocks, which is what
			// makes block-granular bulk transfers productive), sometimes
			// far.
			if self >= nFns-2 {
				emitCond(cond{takenBias: 0.5, target: -1}, true, 0)
				break
			}
			span := nFns - 1 - self
			reach := span
			if r.Float64() < 0.7 && reach > 24 {
				reach = 24
			}
			emit(op{length: 4, kind: trace.Call, arg: int32(self + 1 + r.Intn(reach))})
		case roll < 0.25:
			// Indirect branch with 2-4 forward targets (resolved after
			// all ops exist).
			emit(op{length: 4, kind: trace.IndirectOther,
				count: uint8(2 + r.Intn(3))})
		case roll < 0.29:
			// Unconditional forward jump.
			emit(op{length: 4, kind: trace.UncondDirect}) // target fixed below
		default:
			// Conditional forward branch; a (1-TakenFraction) share of
			// sites is never taken. Ever-taken sites get a bimodal bias
			// distribution like real code: mostly strongly biased one
			// way, a minority genuinely mixed (the PHT's clientele).
			bias := 0.0
			static := false
			period := 0
			if r.Float64() < p.TakenFraction {
				switch roll2 := r.Float64(); {
				case roll2 < 0.60:
					bias = 0.955 + 0.04*r.Float64() // strongly taken
				case roll2 < 0.92:
					bias = 0.01 + 0.04*r.Float64() // rarely taken
				default:
					// Periodic data-dependent branch: deterministic
					// pattern the predictors can (partly) learn.
					period = 2 + r.Intn(5)
					bias = 1 // ever-taken by construction
				}
				static = bias > 0.5
			}
			emitCond(cond{takenBias: bias, target: -1}, static, period) // target fixed below
		}
	}
	// Trailing run and the return.
	for n := 1 + r.Intn(3); n > 0; n-- {
		emit(op{length: instLen(), kind: trace.NotBranch})
	}
	emit(op{length: 2, kind: trace.Return})
	ops := prog.ops[first:]

	// Point the preload-hint slots at statically-targetable taken
	// branches: calls, unconditional jumps, loop backedges and
	// taken-biased conditionals (indirects and returns have no static
	// target to preload).
	if p.PreloadHints {
		hint := 0
		for i := range ops {
			if hint >= hintSlots {
				break
			}
			suitable := false
			switch ops[i].kind {
			case trace.Call, trace.UncondDirect:
				suitable = true
			case trace.CondDirect:
				c := &prog.conds[ops[i].arg]
				suitable = c.loop || c.takenBias > 0.5
			}
			if suitable {
				ops[hint].arg = int32(first + i)
				hint++
			}
		}
		// Unused slots degrade to ordinary instructions.
		for ; hint < hintSlots; hint++ {
			ops[hint].kind = trace.NotBranch
		}
	}

	// Fix up forward targets now that the op count is known. forward
	// draws a skip of 1..n ops after op i, clamped inside the function.
	// Direct branches skip up to 9, so taken branches regularly skip
	// later call sites and the dynamic call rate stays below one per
	// execution.
	forward := func(i, n int) int32 {
		tgt := i + 1 + r.Intn(n)
		if tgt >= len(ops) {
			tgt = len(ops) - 1
		}
		return int32(first + tgt)
	}
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case trace.CondDirect:
			if c := &prog.conds[o.arg]; c.target == -1 {
				c.target = forward(i, 9)
			}
		case trace.UncondDirect:
			o.arg = forward(i, 9)
		case trace.IndirectOther:
			o.arg = int32(len(prog.targets))
			for j := 0; j < int(o.count); j++ {
				prog.targets = append(prog.targets, forward(i, 8))
			}
		}
	}
	prog.fns = append(prog.fns, fn{first: int32(first), end: int32(len(prog.ops))})
}

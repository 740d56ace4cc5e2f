package workload

import (
	"math/rand"
	"runtime"

	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// maxCallDepth bounds the interpreter's call stack; deeper calls become
// tail calls (the frame is not pushed), which keeps traces finite while
// preserving call/return branch behaviour.
const maxCallDepth = 16

// dispatchQuantum is the maximum instruction count between visits to the
// transaction dispatcher: once exceeded, the next Return unwinds the
// whole stack (a timer-interrupt-style context switch, typical of the
// commercial transaction workloads Table 4 models). It guarantees the
// working-set window keeps rotating even through call-dense code
// clusters.
const dispatchQuantum = 1200

// Source is the deterministic interpreter that walks a compiled program
// and implements trace.Source and trace.Batcher. Two passes separated
// by Reset yield identical streams.
type Source struct {
	prog *program

	r         *rand.Rand
	emitted   int
	stack     []int32 // return op indices
	pc        int32   // index of the next op in prog.ops
	window    int
	txnLeft   int
	sinceDisp int // instructions since the last dispatcher visit
	// counts holds, per counter slot, a counted conditional's
	// executions since it was last not taken.
	counts []uint8
	// lastInvoked is the previous dispatcher choice, re-invoked in
	// bursts (transaction workloads hammer the same service paths
	// repeatedly before moving on).
	lastInvoked int
	haveLast    bool
	// recent is a ring of recently dispatched functions; re-invoking
	// from it produces the medium-distance, recency-skewed reuse real
	// transaction mixes exhibit (and which LRU retention exploits).
	recent    []int
	recentPos int
}

// recentCap bounds the recency ring.
const recentCap = 192

// New returns a trace source for a profile; invalid profiles panic
// (profiles are code). Sources of equal profiles share one compiled
// program, built by the first of them.
func New(p Profile) *Source {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := newSource(acquireProgram(p))
	runtime.SetFinalizer(s, (*Source).release)
	return s
}

// newSource returns a Source over prog, ready for its first pass.
func newSource(prog *program) *Source {
	s := &Source{
		prog:   prog,
		r:      rand.New(rand.NewSource(prog.profile.Seed + 1)),
		stack:  make([]int32, 0, maxCallDepth),
		counts: make([]uint8, prog.slots),
		recent: make([]int, 0, recentCap),
	}
	s.Reset()
	return s
}

// Name implements trace.Source.
func (s *Source) Name() string { return s.prog.profile.Name }

// Len returns the number of instructions a pass yields.
func (s *Source) Len() int { return s.prog.profile.Instructions }

// Profile returns the generating profile.
func (s *Source) Profile() Profile { return s.prog.profile }

// Reset implements trace.Source.
func (s *Source) Reset() {
	s.r.Seed(s.prog.profile.Seed + 1)
	s.emitted = 0
	s.stack = s.stack[:0]
	s.window = 0
	s.txnLeft = 0
	s.sinceDisp = 0
	clear(s.counts)
	s.haveLast = false
	s.recent = s.recent[:0]
	s.recentPos = 0
	s.pc = s.prog.fns[s.nextInvocation()].first
}

// nextInvocation picks the next top-level function: hot set with
// probability HotFraction, else a function from the sliding window.
func (s *Source) nextInvocation() int {
	p := s.prog.profile
	if s.txnLeft == 0 {
		// Advance the working-set window; sweeping it across the whole
		// function list produces re-reference distances far beyond the
		// BTB1's capacity. The fast advance (half a window per
		// transaction) makes cold re-entries the dominant branch-miss
		// class, as in the paper's large-footprint traces.
		s.window = (s.window + p.WindowFunctions) % len(s.prog.fns)
		s.txnLeft = p.CallsPerTransaction
	}
	s.txnLeft--
	// Burst re-invocation: transaction code re-runs the same service
	// function several times before moving on, giving freshly-installed
	// BTBP entries the short-distance re-reference they need to be
	// promoted into the BTB1.
	if s.haveLast && s.r.Float64() < 0.32 {
		return s.lastInvoked
	}
	var pick int
	switch roll := s.r.Float64(); {
	case roll < p.HotFraction:
		pick = s.prog.hotFns[s.r.Intn(len(s.prog.hotFns))]
	case roll < p.HotFraction+0.20 && len(s.recent) > 0:
		// Medium-distance reuse from the recency ring.
		pick = s.recent[s.r.Intn(len(s.recent))]
	default:
		pick = (s.window + s.r.Intn(p.WindowFunctions)) % len(s.prog.fns)
	}
	if len(s.recent) < recentCap {
		s.recent = append(s.recent, pick)
	} else {
		s.recent[s.recentPos] = pick
		s.recentPos = (s.recentPos + 1) % recentCap
	}
	s.lastInvoked = pick
	s.haveLast = true
	return pick
}

// Next implements trace.Source.
func (s *Source) Next() (trace.Inst, bool) {
	if s.emitted >= s.prog.profile.Instructions {
		return trace.Inst{}, false
	}
	s.emitted++
	var in trace.Inst
	s.step(&in)
	return in, true
}

// FillBatch implements trace.Batcher: it writes the next records in
// place into b's backing array, bounded once per call by the batch
// capacity and the instructions left in the pass. Runs of straight-line
// ops are copied in a tight loop; every other op goes through step, the
// interpreter Next uses, so both entry points yield one stream and may
// be mixed freely.
func (s *Source) FillBatch(b *trace.Batch) int {
	n := min(cap(b.Ins), s.prog.profile.Instructions-s.emitted)
	ins := b.Ins[:n]
	ops := s.prog.ops
	for i := 0; i < n; {
		pc := s.pc
		if ops[pc].kind != trace.NotBranch {
			s.step(&ins[i])
			i++
			continue
		}
		// Every function ends in a Return, so the run stays inside ops.
		start := i
		for ; i < n && ops[pc].kind == trace.NotBranch; i++ {
			o := &ops[pc]
			ins[i] = trace.Inst{Addr: zaddr.Addr(o.addr), Length: o.length}
			pc++
		}
		s.pc = pc
		s.sinceDisp += i - start
	}
	s.emitted += n
	b.Ins = ins
	return n
}

// step writes the op at pc into in and advances the interpreter past
// it. The caller has counted the instruction against the pass length.
func (s *Source) step(in *trace.Inst) {
	s.sinceDisp++

	ops := s.prog.ops
	o := &ops[s.pc]
	*in = trace.Inst{
		Addr:   zaddr.Addr(o.addr),
		Length: o.length,
		Kind:   o.kind,
	}

	// Every function ends in a Return and every branch target lies
	// inside its function, so pc never leaves the function it walks.
	switch o.kind {
	case trace.NotBranch:
		s.pc++

	case trace.CondDirect:
		cd := &s.prog.conds[o.arg]
		var taken bool
		if o.count > 0 {
			// Counted: not taken on every count-th execution.
			c := s.counts[cd.slot] + 1
			taken = c < o.count
			if !taken {
				c = 0
			}
			s.counts[cd.slot] = c
		} else {
			taken = s.r.Float64() < cd.takenBias
		}
		in.Taken = taken
		in.Target = zaddr.Addr(ops[cd.target].addr)
		in.StaticTaken = o.staticTaken
		if taken {
			s.pc = cd.target
		} else {
			s.pc++
		}

	case trace.UncondDirect:
		in.Taken = true
		in.Target = zaddr.Addr(ops[o.arg].addr)
		in.StaticTaken = true
		s.pc = o.arg

	case trace.Call:
		in.Taken = true
		in.StaticTaken = true
		entry := s.prog.fns[o.arg].first
		in.Target = zaddr.Addr(ops[entry].addr)
		if len(s.stack) < maxCallDepth {
			s.stack = append(s.stack, s.pc+1)
		} else {
			// Depth cap: redirect the innermost return to just after this
			// call site, so the stack keeps draining and every function
			// still completes (a bounded-stack approximation).
			s.stack[len(s.stack)-1] = s.pc + 1
		}
		s.pc = entry

	case trace.Return:
		in.Taken = true
		in.StaticTaken = true
		if s.sinceDisp > dispatchQuantum {
			// Quantum expired: unwind to the dispatcher.
			s.stack = s.stack[:0]
		}
		if n := len(s.stack); n > 0 {
			s.pc = s.stack[n-1]
			s.stack = s.stack[:n-1]
		} else {
			// Top-level return: the transaction dispatcher invokes the
			// next function.
			s.sinceDisp = 0
			s.pc = s.prog.fns[s.nextInvocation()].first
		}
		in.Target = zaddr.Addr(ops[s.pc].addr)

	case trace.PreloadHint:
		// Software branch preload: name the branch op and its static
		// target. Calls preload their callee's entry; direct branches
		// preload their jump target.
		br := &ops[o.arg]
		in.HintBranch = zaddr.Addr(br.addr)
		switch br.kind {
		case trace.Call:
			in.Target = zaddr.Addr(ops[s.prog.fns[br.arg].first].addr)
		case trace.CondDirect:
			in.Target = zaddr.Addr(ops[s.prog.conds[br.arg].target].addr)
		default:
			in.Target = zaddr.Addr(ops[br.arg].addr)
		}
		s.pc++

	case trace.IndirectOther:
		in.Taken = true
		in.StaticTaken = true
		// Indirect branches favour a dominant target (85%), like real
		// dispatch sites; the remainder exercises the CTB.
		tgts := s.prog.targets[o.arg : o.arg+int32(o.count)]
		tgt := tgts[0]
		if s.r.Float64() >= 0.85 && len(tgts) > 1 {
			tgt = tgts[1+s.r.Intn(len(tgts)-1)]
		}
		in.Target = zaddr.Addr(ops[tgt].addr)
		s.pc = tgt
	}
}

var _ trace.Batcher = (*Source)(nil)

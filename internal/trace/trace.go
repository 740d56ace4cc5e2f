// Package trace defines the abstract instruction-stream model consumed by
// the simulator, a binary on-disk trace format, and footprint statistics
// matching Table 4 of the paper.
//
// The branch prediction hierarchy only observes instruction addresses,
// lengths, branch kinds, resolved directions and targets, so a trace
// record carries exactly that. z/Architecture instructions are 2, 4 or 6
// bytes long; generators in internal/workload respect those lengths so
// that footprint estimates (24-30 bytes of instruction space per BTB
// entry) carry over.
package trace

import (
	"fmt"

	"bulkpreload/internal/zaddr"
)

// Kind classifies an instruction for the predictor's purposes.
type Kind uint8

const (
	// NotBranch is any instruction that cannot redirect sequential flow.
	NotBranch Kind = iota
	// CondDirect is a conditional branch with an immediate target
	// (BRC/BRCT-style). Eligible for BHT/PHT direction prediction.
	CondDirect
	// UncondDirect is an always-taken branch with an immediate target.
	UncondDirect
	// Call is a branch-and-link (BRAS/BRASL-style); always taken.
	Call
	// Return is an indirect branch through a register used as a
	// subroutine return; always taken, target varies by call site.
	Return
	// IndirectOther is any other computed branch (branch tables, virtual
	// dispatch); may vary both direction and target. Eligible for CTB
	// target prediction.
	IndirectOther
	// PreloadHint is a branch preload instruction (the z/Architecture
	// BPP-style facility Section 3.1 lists among the BTBP write
	// sources): it names an upcoming branch (HintBranch) and its target
	// so software can install the prediction ahead of execution. It is
	// not itself a branch.
	PreloadHint

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NotBranch:
		return "not-branch"
	case CondDirect:
		return "cond-direct"
	case UncondDirect:
		return "uncond-direct"
	case Call:
		return "call"
	case Return:
		return "return"
	case IndirectOther:
		return "indirect"
	case PreloadHint:
		return "preload-hint"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsBranch reports whether the kind can redirect instruction flow.
func (k Kind) IsBranch() bool {
	return k != NotBranch && k != PreloadHint && k < numKinds
}

// AlwaysTaken reports whether the kind is unconditionally taken when
// executed (unconditional direct branches, calls, returns).
func (k Kind) AlwaysTaken() bool {
	return k == UncondDirect || k == Call || k == Return
}

// Inst is one executed instruction as seen by the simulator. For branch
// kinds, Taken and Target record the resolved outcome of this dynamic
// execution.
type Inst struct {
	Addr   zaddr.Addr // instruction address
	Target zaddr.Addr // resolved target (branches only, taken or not)
	Length uint8      // 2, 4 or 6 bytes
	Kind   Kind
	Taken  bool // resolved direction
	// StaticTaken is the static guess derived from opcode and instruction
	// text, used for surprise branches together with the tagless surprise
	// BHT. Generators set it from the branch's dominant direction with
	// deliberate noise so that static guessing is imperfect, as on real
	// opcodes.
	StaticTaken bool
	// HintBranch is the branch instruction address a PreloadHint names
	// (with Target as its predicted target). Zero for all other kinds.
	HintBranch zaddr.Addr
}

// IsBranch reports whether the instruction is any kind of branch.
func (in Inst) IsBranch() bool { return in.Kind.IsBranch() }

// FallThrough returns the address of the next sequential instruction.
func (in Inst) FallThrough() zaddr.Addr {
	return in.Addr + zaddr.Addr(in.Length)
}

// NextAddr returns the address control actually flowed to after this
// instruction executed.
func (in Inst) NextAddr() zaddr.Addr {
	if in.IsBranch() && in.Taken {
		return in.Target
	}
	return in.FallThrough()
}

// Validate checks structural invariants of a record. It is used by the
// trace reader and by property tests over generators.
func (in Inst) Validate() error {
	switch in.Length {
	case 2, 4, 6:
	default:
		return fmt.Errorf("trace: instruction at %#x has invalid length %d", uint64(in.Addr), in.Length)
	}
	if in.Addr%2 != 0 {
		return fmt.Errorf("trace: instruction address %#x not halfword aligned", uint64(in.Addr))
	}
	if in.Kind >= numKinds {
		return fmt.Errorf("trace: instruction at %#x has invalid kind %d", uint64(in.Addr), uint8(in.Kind))
	}
	if in.Kind == PreloadHint {
		if in.Taken {
			return fmt.Errorf("trace: preload hint at %#x marked taken", uint64(in.Addr))
		}
		if in.HintBranch%2 != 0 || in.Target%2 != 0 {
			return fmt.Errorf("trace: preload hint at %#x has misaligned operands", uint64(in.Addr))
		}
		if in.HintBranch == 0 {
			return fmt.Errorf("trace: preload hint at %#x names no branch", uint64(in.Addr))
		}
		return nil
	}
	if !in.IsBranch() {
		if in.Taken {
			return fmt.Errorf("trace: non-branch at %#x marked taken", uint64(in.Addr))
		}
		if in.HintBranch != 0 {
			return fmt.Errorf("trace: non-hint at %#x carries a hint branch", uint64(in.Addr))
		}
		return nil
	}
	if in.HintBranch != 0 {
		return fmt.Errorf("trace: branch at %#x carries a hint branch", uint64(in.Addr))
	}
	if in.Kind.AlwaysTaken() && !in.Taken {
		return fmt.Errorf("trace: always-taken %v at %#x resolved not-taken", in.Kind, uint64(in.Addr))
	}
	if in.Taken && in.Target%2 != 0 {
		return fmt.Errorf("trace: branch at %#x has misaligned target %#x", uint64(in.Addr), uint64(in.Target))
	}
	return nil
}

// Source is a restartable stream of instructions. Implementations must be
// deterministic: two passes separated by Reset yield identical streams.
// The simulator makes multiple passes (one per configuration) over each
// workload.
type Source interface {
	// Name identifies the workload (e.g. "zos-daytrader-dbserv").
	Name() string
	// Next returns the next instruction. ok is false at end of stream.
	Next() (in Inst, ok bool)
	// Reset restarts the stream from the beginning.
	Reset()
}

// SliceSource adapts an in-memory instruction slice to Source. It is the
// workhorse for unit tests and for directed microbenchmark kernels.
// Refills from a resident slice are not worth span events; file-backed
// streaming (FileSource) is the traced path.
//
//zbp:allow obsreg in-memory refills are not traced; FileSource records refill spans
type SliceSource struct {
	name string
	ins  []Inst
	pos  int
}

// NewSliceSource builds a Source named name over ins. The slice is not
// copied; callers must not mutate it afterwards.
func NewSliceSource(name string, ins []Inst) *SliceSource {
	return &SliceSource{name: name, ins: ins}
}

// Name implements Source.
func (s *SliceSource) Name() string { return s.name }

// Next implements Source.
func (s *SliceSource) Next() (Inst, bool) {
	if s.pos >= len(s.ins) {
		return Inst{}, false
	}
	in := s.ins[s.pos]
	s.pos++
	return in, true
}

// Reset implements Source.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the source.
func (s *SliceSource) Len() int { return len(s.ins) }

// Collect drains src into a slice (resetting it first) and returns the
// instructions. Intended for tests, for writing trace files and for
// studies that replay one recorded trace many times. A source that
// reports its length (a Len() int method, as SliceSource and the
// synthetic workload source have) gets a slice of exactly that size,
// grown only if the source yields more.
func Collect(src Source) []Inst {
	src.Reset()
	var out []Inst
	if l, ok := src.(interface{ Len() int }); ok {
		out = make([]Inst, 0, l.Len())
	}
	//zbp:bounded terminates when src.Next reports end-of-trace
	for {
		in, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}

// LimitSource wraps a Source and truncates it to at most n instructions
// per pass. Used to bound simulation time in sweeps.
type LimitSource struct {
	Src  Source
	N    int
	seen int
}

// NewLimitSource returns a Source yielding at most n instructions of src.
func NewLimitSource(src Source, n int) *LimitSource {
	return &LimitSource{Src: src, N: n}
}

// Name implements Source.
func (l *LimitSource) Name() string { return l.Src.Name() }

// Next implements Source.
func (l *LimitSource) Next() (Inst, bool) {
	if l.seen >= l.N {
		return Inst{}, false
	}
	in, ok := l.Src.Next()
	if ok {
		l.seen++
	}
	return in, ok
}

// Reset implements Source.
func (l *LimitSource) Reset() {
	l.seen = 0
	l.Src.Reset()
}

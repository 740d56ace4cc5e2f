package workload

import (
	"math"
	"strings"
	"testing"

	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

func smallProfile() Profile {
	return Profile{
		Name:                "test-small",
		UniqueBranches:      2000,
		TakenFraction:       0.7,
		Instructions:        60_000,
		HotFraction:         0.2,
		WindowFunctions:     16,
		CallsPerTransaction: 6,
		Seed:                42,
	}
}

func TestProfileValidate(t *testing.T) {
	if err := smallProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.UniqueBranches = 5 },
		func(p *Profile) { p.UniqueBranches = maxUniqueBranches + 1 },
		func(p *Profile) { p.TakenFraction = 0 },
		func(p *Profile) { p.TakenFraction = 1.5 },
		func(p *Profile) { p.TakenFraction = math.NaN() },
		func(p *Profile) { p.TakenFraction = math.Inf(1) },
		func(p *Profile) { p.TakenFraction = math.Inf(-1) },
		func(p *Profile) { p.HotFraction = math.NaN() },
		func(p *Profile) { p.HotFraction = math.Inf(1) },
		func(p *Profile) { p.HotFraction = math.Inf(-1) },
		func(p *Profile) { p.Instructions = 0 },
		func(p *Profile) { p.HotFraction = 1.0 },
		func(p *Profile) { p.WindowFunctions = 0 },
		func(p *Profile) { p.CallsPerTransaction = 0 },
	}
	for i, mutate := range bad {
		p := smallProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEveryInstructionValid(t *testing.T) {
	s := New(smallProfile())
	n := 0
	for {
		in, ok := s.Next()
		if !ok {
			break
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("instruction %d: %v", n, err)
		}
		n++
	}
	if n != 60_000 {
		t.Fatalf("emitted %d instructions, want 60000", n)
	}
}

func TestDeterministicAcrossReset(t *testing.T) {
	s := New(smallProfile())
	first := trace.Collect(s)
	second := trace.Collect(s)
	if len(first) != len(second) {
		t.Fatalf("pass lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("instruction %d differs across Reset", i)
		}
	}
}

func TestControlFlowConsistency(t *testing.T) {
	// Every instruction must start where the previous one said control
	// goes (NextAddr) — the interpreter must never teleport.
	s := New(smallProfile())
	prev, ok := s.Next()
	if !ok {
		t.Fatal("empty source")
	}
	for i := 1; ; i++ {
		in, ok := s.Next()
		if !ok {
			break
		}
		if in.Addr != prev.NextAddr() {
			t.Fatalf("instruction %d at %#x, expected %#x (after %+v)",
				i, uint64(in.Addr), uint64(prev.NextAddr()), prev)
		}
		prev = in
	}
}

func TestFootprintApproximatesProfile(t *testing.T) {
	p := smallProfile()
	s := New(p)
	st := trace.Measure(s)
	// Unique executed branches should be within 45%..110% of the target
	// (coverage depends on the walk), and the taken fraction within 20
	// points.
	lo, hi := int(float64(p.UniqueBranches)*0.45), int(float64(p.UniqueBranches)*1.10)
	if st.UniqueBranches < lo || st.UniqueBranches > hi {
		t.Errorf("unique branches = %d, want %d..%d", st.UniqueBranches, lo, hi)
	}
	gotFrac := float64(st.UniqueTaken) / float64(st.UniqueBranches)
	if gotFrac < p.TakenFraction-0.2 || gotFrac > p.TakenFraction+0.2 {
		t.Errorf("taken fraction = %.2f, want ~%.2f", gotFrac, p.TakenFraction)
	}
	// Plausible branch density for commercial code: 1 branch per 3..9
	// instructions.
	d := st.BranchDensity()
	if d < 1.0/9 || d > 1.0/3 {
		t.Errorf("branch density = %.3f, implausible", d)
	}
}

func TestStaticSitesBoundExecuted(t *testing.T) {
	s := New(smallProfile())
	st := trace.Measure(s)
	if st.UniqueBranches > s.StaticBranchSites() {
		t.Errorf("executed %d unique branches > %d static sites",
			st.UniqueBranches, s.StaticBranchSites())
	}
	if s.Functions() < 4 {
		t.Errorf("too few functions: %d", s.Functions())
	}
	ops := s.prog.ops
	if first, last := zaddr.Block(zaddr.Addr(ops[0].addr)), zaddr.Block(zaddr.Addr(ops[len(ops)-1].addr)); first == last {
		t.Errorf("program fits in one 4 KB block (%#x)", first)
	}
}

func TestTable4Registry(t *testing.T) {
	ps := Table4Profiles(0)
	if len(ps) != 13 {
		t.Fatalf("Table 4 has 13 traces, registry has %d", len(ps))
	}
	seenNames := map[string]bool{}
	seenSeeds := map[int64]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.Instructions != DefaultInstructions {
			t.Errorf("%s: default instructions not applied", p.Name)
		}
		if seenNames[p.Name] || seenSeeds[p.Seed] {
			t.Errorf("%s: duplicate name or seed", p.Name)
		}
		seenNames[p.Name] = true
		seenSeeds[p.Seed] = true
	}
	// Spot-check the paper numbers.
	cics, err := ByName("zos-lspr-cicsdb2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cics.UniqueBranches != 40_667 {
		t.Errorf("CICS/DB2 unique branches = %d", cics.UniqueBranches)
	}
	if cics.Instructions != 1000 {
		t.Errorf("instruction override ignored")
	}
	if _, err := ByName("nope", 0); err == nil {
		t.Error("ByName accepted unknown name")
	}
	if len(Names()) != 13 {
		t.Error("Names() wrong length")
	}
}

func TestKernelsValidAndConsistent(t *testing.T) {
	kernels := []*trace.SliceSource{
		KernelSingleTakenLoop(100),
		KernelTakenChain(8, 50),
		KernelNotTakenRun(4, 20),
		KernelBranchlessRun(512, 10),
		KernelColdCodeSweep(4, 2),
	}
	for _, k := range kernels {
		ins := trace.Collect(k)
		if len(ins) == 0 {
			t.Fatalf("%s: empty", k.Name())
		}
		for i, in := range ins {
			if err := in.Validate(); err != nil {
				t.Fatalf("%s inst %d: %v", k.Name(), i, err)
			}
		}
	}
}

func TestKernelSingleTakenLoopShape(t *testing.T) {
	k := KernelSingleTakenLoop(10)
	st := trace.Measure(k)
	if st.UniqueBranches != 1 {
		t.Errorf("loop kernel has %d unique branches, want 1", st.UniqueBranches)
	}
	if st.TakenBr != 9 { // last iteration falls through
		t.Errorf("taken executions = %d, want 9", st.TakenBr)
	}
}

func TestKernelColdSweepBlocks(t *testing.T) {
	k := KernelColdCodeSweep(8, 1)
	st := trace.Measure(k)
	if st.Blocks4K != 8 {
		t.Errorf("cold sweep spans %d blocks, want 8", st.Blocks4K)
	}
	if st.UniqueBranches != 8*17 { // 16 cond + 1 jump per block
		t.Errorf("unique branches = %d, want %d", st.UniqueBranches, 8*17)
	}
}

func TestLargeProfileSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("large profile in -short mode")
	}
	// The biggest Table 4 profile compiles and streams.
	p, _ := ByName("zos-lspr-wasdb-cbw2", 50_000)
	s := New(p)
	st := trace.Measure(s)
	if st.Instructions != 50_000 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
}

func TestNewPanicsOnBadProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid profile")
		}
	}()
	New(Profile{})
}

func TestDisassemble(t *testing.T) {
	var buf strings.Builder
	s := New(smallProfile())
	if err := s.Disassemble(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fn0:", "fn1:", "fn2:", "br    %r14", "brc "} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q", want)
		}
	}
	if strings.Contains(out, "fn3:") {
		t.Error("maxFns not honored")
	}
	// Hinted programs render bpp instructions.
	hp := smallProfile()
	hp.PreloadHints = true
	buf.Reset()
	if err := New(hp).Disassemble(&buf, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bpp ") {
		t.Error("preload hints not rendered")
	}
	// maxFns <= 0 dumps everything without error.
	buf.Reset()
	if err := New(smallProfile()).Disassemble(&buf, 0); err != nil {
		t.Fatal(err)
	}
}

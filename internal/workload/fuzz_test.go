package workload

import (
	"testing"

	"bulkpreload/internal/trace"
)

// FuzzFillBatch drives one source through a script of Next, FillBatch
// at varied capacities and Reset, and replays the script's records and
// resets on a second source of the same program through Next alone:
// every record, every batch length and the end of stream must match.
// Each script byte is one step: low three bits pick the operation
// (0-2 Next, 3-6 FillBatch, 7 Reset), the high five bits size the
// batch, from 1 record to more than a whole pass. The program is a
// Table 4 one, with or without preload hints: its deep call chains
// reach the dispatch quantum within a few thousand records.
func FuzzFillBatch(f *testing.F) {
	f.Add(false, []byte{0, 3, 0, 0xfb, 7, 0x0b, 0})
	f.Add(true, []byte{0xff, 0xfe, 0xfd, 0xfc})
	f.Add(true, []byte{3, 3, 3, 7, 0, 0, 0x83, 7, 0x43})
	p, err := ByName("zos-daytrader-dbserv", 20_000)
	if err != nil {
		f.Fatal(err)
	}
	var progs [2]*program // compiled once, not per input; [1] has hints
	progs[0] = buildProgram(p)
	p.PreloadHints = true
	progs[1] = buildProgram(p)
	junk := trace.Inst{Addr: 0xdead, Target: 0xbeef, HintBranch: 0xf00d, Length: 6, Kind: trace.Call, Taken: true, StaticTaken: true}
	f.Fuzz(func(t *testing.T, hints bool, script []byte) {
		prog := progs[0]
		if hints {
			prog = progs[1]
		}
		s, ref := newSource(prog), newSource(prog)
		fill := func(c int) {
			// Stale contents must be overwritten, never leak through.
			b := trace.NewBatch(c)
			for range c {
				b.Ins = append(b.Ins, junk)
			}
			n := s.FillBatch(&b)
			if n != len(b.Ins) || n > c {
				t.Fatalf("FillBatch(cap %d) returned %d with %d records", c, n, len(b.Ins))
			}
			for i, got := range b.Ins {
				want, ok := ref.Next()
				if !ok || got != want {
					t.Fatalf("batch record %d of %d = %+v, Next gives %+v (ok %v)", i, n, got, want, ok)
				}
			}
			if n < c {
				if want, ok := ref.Next(); ok {
					t.Fatalf("FillBatch(cap %d) ended the stream after %d records; Next gives %+v", c, n, want)
				}
			}
		}
		for _, op := range script {
			switch k := op & 7; {
			case k <= 2:
				got, gok := s.Next()
				want, wok := ref.Next()
				if got != want || gok != wok {
					t.Fatalf("Next = %+v (ok %v), want %+v (ok %v)", got, gok, want, wok)
				}
			case k <= 6:
				x := int(op >> 3)
				fill(1 + 4*x*x)
			default:
				s.Reset()
				ref.Reset()
			}
		}
		fill(p.Instructions + 1)
	})
}

// FuzzCompileProgram compiles random valid profiles (16 to 4,000
// unique branches, any taken and hot fraction, window and call count,
// with and without preload hints) and checks the compiled program's
// structure, which the interpreter relies on without checking:
//   - every function ends in a Return;
//   - every jump, hint and indirect target lies inside its own function;
//   - every callee index is higher than its caller's;
//   - each cond is referenced by exactly one CondDirect, and counted
//     conds own distinct counter slots;
//   - addresses inside a function advance by each op's length.
func FuzzCompileProgram(f *testing.F) {
	f.Add(uint16(0), uint16(999), uint16(0), uint8(0), uint8(0), false, int64(0))
	f.Add(uint16(3984), uint16(0), uint16(999), uint8(255), uint8(255), true, int64(-1))
	f.Add(uint16(2000), uint16(700), uint16(200), uint8(16), uint8(6), true, int64(42))
	f.Add(uint16(40), uint16(350), uint16(50), uint8(3), uint8(1), false, int64(7))
	f.Fuzz(func(t *testing.T, branches, taken, hot uint16, window, calls uint8, hints bool, seed int64) {
		p := Profile{
			Name:                "fuzz",
			UniqueBranches:      16 + int(branches)%3985,
			TakenFraction:       float64(1+taken%1000) / 1000,
			Instructions:        1,
			HotFraction:         float64(hot%1000) / 1000,
			WindowFunctions:     1 + int(window),
			CallsPerTransaction: 1 + int(calls),
			Seed:                seed,
			PreloadHints:        hints,
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		checkProgram(t, buildProgram(p))
	})
}

// checkProgram fails t on the first structural fault in prog.
func checkProgram(t *testing.T, prog *program) {
	t.Helper()
	condRefs := make([]int, len(prog.conds))
	slotUsed := make([]bool, prog.slots)
	next := int32(0)
	for fi, f := range prog.fns {
		if f.first != next || f.end <= f.first {
			t.Fatalf("fn%d spans ops [%d,%d), want to start at %d", fi, f.first, f.end, next)
		}
		next = f.end
		inside := func(i int32, what string) {
			if i < f.first || i >= f.end {
				t.Fatalf("fn%d [%d,%d): %s %d lies outside the function", fi, f.first, f.end, what, i)
			}
		}
		if k := prog.ops[f.end-1].kind; k != trace.Return {
			t.Fatalf("fn%d ends in kind %v, want Return", fi, k)
		}
		for i := f.first; i < f.end; i++ {
			o := &prog.ops[i]
			if i+1 < f.end && prog.ops[i+1].addr != o.addr+uint32(o.length) {
				t.Fatalf("fn%d op %d at %#x (length %d) is followed by %#x", fi, i, o.addr, o.length, prog.ops[i+1].addr)
			}
			switch o.kind {
			case trace.CondDirect:
				if o.arg < 0 || int(o.arg) >= len(prog.conds) {
					t.Fatalf("fn%d op %d: cond %d out of range [0,%d)", fi, i, o.arg, len(prog.conds))
				}
				condRefs[o.arg]++
				c := &prog.conds[o.arg]
				inside(c.target, "conditional target")
				if o.count > 0 {
					if c.slot < 0 || int(c.slot) >= len(slotUsed) || slotUsed[c.slot] {
						t.Fatalf("fn%d op %d: counter slot %d out of range or shared", fi, i, c.slot)
					}
					slotUsed[c.slot] = true
				}
			case trace.UncondDirect:
				inside(o.arg, "jump target")
			case trace.PreloadHint:
				inside(o.arg, "hinted branch")
				if k := prog.ops[o.arg].kind; k != trace.Call && k != trace.UncondDirect && k != trace.CondDirect {
					t.Fatalf("fn%d op %d hints op %d of kind %v, which has no static target", fi, i, o.arg, k)
				}
			case trace.Call:
				if int(o.arg) <= fi || int(o.arg) >= len(prog.fns) {
					t.Fatalf("fn%d op %d calls fn%d, want an index in (%d,%d)", fi, i, o.arg, fi, len(prog.fns))
				}
			case trace.IndirectOther:
				if o.count == 0 || o.arg < 0 || int(o.arg)+int(o.count) > len(prog.targets) {
					t.Fatalf("fn%d op %d: %d indirect targets at %d overrun %d", fi, i, o.count, o.arg, len(prog.targets))
				}
				for _, tgt := range prog.targets[o.arg : o.arg+int32(o.count)] {
					inside(tgt, "indirect target")
				}
			}
		}
	}
	if int(next) != len(prog.ops) {
		t.Fatalf("functions cover %d of %d ops", next, len(prog.ops))
	}
	for c, n := range condRefs {
		if n != 1 {
			t.Fatalf("cond %d is referenced by %d CondDirect ops, want 1", c, n)
		}
	}
}

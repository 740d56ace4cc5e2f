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

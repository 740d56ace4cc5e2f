package workload

import (
	"fmt"
	"io"

	"bulkpreload/internal/trace"
)

// Disassemble writes a human-readable listing of the compiled program's
// first maxFns functions: addresses, pseudo-mnemonics, targets and
// behavioural annotations (loop trip counts, taken biases, periodic
// patterns). It makes the synthetic workloads inspectable the way a
// real trace's binary would be.
func (s *Source) Disassemble(w io.Writer, maxFns int) error {
	prog := s.prog
	if maxFns <= 0 || maxFns > len(prog.fns) {
		maxFns = len(prog.fns)
	}
	for fi, f := range prog.fns[:maxFns] {
		entry := prog.ops[f.first].addr
		if _, err := fmt.Fprintf(w, "fn%d: ; entry %#x, %d ops\n", fi, entry, f.end-f.first); err != nil {
			return err
		}
		for i := f.first; i < f.end; i++ {
			if err := disasmOp(w, prog, &prog.ops[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// disasmOp renders one instruction site.
func disasmOp(w io.Writer, prog *program, o *op) error {
	target := func(idx int32) uint32 { return prog.ops[idx].addr }
	var text string
	switch o.kind {
	case trace.NotBranch:
		text = fmt.Sprintf("op.%d", o.length)
	case trace.CondDirect:
		c := &prog.conds[o.arg]
		switch {
		case o.count > 0 && c.loop:
			text = fmt.Sprintf("brct  %#x        ; loop, %d trips", target(c.target), o.count)
		case o.count > 0:
			text = fmt.Sprintf("brc   %#x        ; periodic, NT every %d", target(c.target), o.count)
		case c.takenBias == 0:
			text = fmt.Sprintf("brc   %#x        ; never taken", target(c.target))
		default:
			text = fmt.Sprintf("brc   %#x        ; p(taken)=%.2f", target(c.target), c.takenBias)
		}
	case trace.UncondDirect:
		text = fmt.Sprintf("j     %#x", target(o.arg))
	case trace.Call:
		text = fmt.Sprintf("brasl fn%d          ; %#x", o.arg, target(prog.fns[o.arg].first))
	case trace.Return:
		text = "br    %r14          ; return"
	case trace.IndirectOther:
		text = fmt.Sprintf("br    %%r1           ; %d targets, first %#x",
			o.count, target(prog.targets[o.arg]))
	case trace.PreloadHint:
		text = fmt.Sprintf("bpp   %#x        ; preload hint", target(o.arg))
	default:
		text = fmt.Sprintf("?kind=%d", o.kind)
	}
	_, err := fmt.Fprintf(w, "  %#08x  %s\n", o.addr, text)
	return err
}

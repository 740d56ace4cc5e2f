package engine

import (
	"context"
	"fmt"
	"math"

	"bulkpreload/internal/cache"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/predictor"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// Batched stepping: the engine's hot loop consumes whole record batches
// instead of one Source.Next interface call per instruction, and
// collapses runs of non-branch instructions whose per-record work
// provably degenerates to counter and clock updates into a single bulk
// update. The bulk conditions are exact — the differential gate in
// internal/sim proves batched and record-at-a-time runs produce
// bit-identical results, including full metric snapshots.

// StepBatch processes a batch of committed instructions, equivalent to
// calling step once per record. Runs of consecutive non-branch
// instructions inside the bulkWindow are applied in bulk: one
// instruction-counter add, one clock add (Ticks are integer, so k adds
// of DispatchTicks equal one add of k*DispatchTicks exactly), and one
// batched steering observe. The window is computed once per run; the
// record that ends a run goes through step.
func (e *Engine) StepBatch(ins []trace.Inst) {
	for i := 0; i < len(ins); i++ {
		lo, span, limit := e.bulkWindow()
		run := ins[i:]
		if int64(len(run)) > limit {
			run = run[:limit]
		}
		k := 0
		for k < len(run) && run[k].Kind == trace.NotBranch && uint64(run[k].Addr-lo) < span {
			k++
		}
		if k > 0 {
			e.res.Instructions += int64(k)
			e.clock += DispatchTicks * predictor.Ticks(k)
			e.hier.ObserveCompleteBatch(run[:k])
			e.bulkRecords += int64(k)
			if i += k; i == len(ins) {
				return
			}
		}
		e.step(ins[i])
		e.slowRecords++
	}
}

// bulkWindow returns the bulk run the engine's current state admits:
// the next records may take the bulk fast path while each is a
// NotBranch whose address a lies in the window, uint64(a-lo) < span,
// and the run holds at most limit records. On such a record every side
// effect of step reduces to Instructions++, clock += DispatchTicks, and
// ObserveComplete, and none of those moves the window:
//
//   - fetch must be a same-line repeat (its early-return path): the
//     window starts at the current fetch line and spans at most one
//     L1I line;
//   - advanceSearch must be a no-op: the record's row strictly behind
//     the search position (no catch-up, no unblocking), and lookahead
//     either blocked or already at its full lead, so the window ends
//     at the search line, or leadRows-1 rows before it when unblocked
//     (searchLine is always a row base);
//   - checkpoints test the instruction count before the increment,
//     snapshots after it, and the warmup capture fires exactly at the
//     boundary, so none of those counts may fall inside the run.
//
// The window is exact, with one conservative corner: step's lead test
// wraps for rows in the last leadRows rows of the address space, and
// those rows never enter the window.
func (e *Engine) bulkWindow() (lo zaddr.Addr, span uint64, limit int64) {
	insts := e.res.Instructions
	limit = math.MaxInt64
	if e.nextCkpt > 0 {
		limit = min(limit, e.nextCkpt-insts)
	}
	if e.nextSnap > 0 {
		limit = min(limit, e.nextSnap-1-insts)
	}
	if w := e.params.WarmupInstructions; !e.warmTaken && w > 0 && w >= insts {
		limit = min(limit, w-insts)
	}
	if limit <= 0 || !e.haveFetch || !e.haveSearch {
		return 0, 0, 0
	}
	hi := e.searchLine
	if !e.searchBlocked {
		if hi < leadRows*zaddr.RowBytes {
			return 0, 0, 0
		}
		hi -= (leadRows - 1) * zaddr.RowBytes
	}
	lo = e.curFetchLine
	if hi <= lo {
		return 0, 0, 0
	}
	return lo, min(uint64(cache.L1IConfig.LineBytes), uint64(hi-lo)), limit
}

// ErrRunCanceled reports a run stopped by its context. Use errors.Is;
// the returned error also wraps the context's own cause
// (context.Canceled or context.DeadlineExceeded).
var ErrRunCanceled = fmt.Errorf("engine: run canceled")

// RunBatched is the production run loop: it simulates src to completion
// under configName like Run, but pulls instructions a batch at a time
// (see trace.NextBatch: an in-memory source is stepped in place,
// anything else through the engine's one reusable batch) and steps them
// with StepBatch. Results are bit-identical to Run on the same source.
//
// ctx is polled after every batch, so a run always advances by at least
// one batch and a cancel lands on a record boundary at most
// trace.DefaultBatchCapacity records later. A canceled run hands the
// engine's state at that boundary to Params.CheckpointSink, when one is
// set, so no progress is lost; the returned error wraps both
// ErrRunCanceled and ctx's error, and the partial Result must not be
// reported as a finished run.
//
// A non-nil from resumes a checkpointed run: the checkpoint is restored
// (its trace and config names win over src's and configName) and the
// prefix it already processed is skipped, whole batches at a time. The
// engine must be built from the configuration the checkpoint was taken
// under, and src must be the same trace.
//
// When Params.Spans is set, the run is traced: one phase span per
// warmup/steady region (rotated at batch granularity — the first batch
// that crosses the warmup boundary closes the warmup span) and one
// batch span per StepBatch call carrying bulk/slow fast-path
// attribution. Span data never influences the simulation.
func (e *Engine) RunBatched(ctx context.Context, src trace.Source, configName string, from *Checkpoint) (Result, error) {
	e.reset()
	src.Reset()
	e.res.Trace = src.Name()
	e.res.Config = configName
	var ins []trace.Inst
	if from != nil {
		var err error
		if ins, err = e.resume(src, from); err != nil {
			return Result{}, err
		}
	}
	if len(ins) == 0 {
		ins = trace.NextBatch(src, &e.batch)
	}
	rec := e.spans
	phaseName := "steady"
	if e.params.WarmupInstructions > 0 && !e.warmTaken {
		phaseName = "warmup"
	}
	phase := rec.Start(span.KindPhase, phaseName, e.params.SpanParent)
	phaseStart := e.res.Instructions
	for ; len(ins) > 0; ins = trace.NextBatch(src, &e.batch) {
		bulk0, slow0 := e.bulkRecords, e.slowRecords
		sb := rec.Start(span.KindBatch, "batch", phase.ID())
		e.StepBatch(ins)
		sb.EndArgs(e.bulkRecords-bulk0, e.slowRecords-slow0)
		if rec.Enabled() && phaseName == "warmup" && e.warmTaken {
			phase.EndArgs(e.res.Instructions-phaseStart, 0)
			phaseName = "steady"
			phaseStart = e.res.Instructions
			phase = rec.Start(span.KindPhase, phaseName, e.params.SpanParent)
		}
		if err := ctx.Err(); err != nil {
			phase.EndArgs(e.res.Instructions-phaseStart, 0)
			if e.params.CheckpointSink != nil {
				e.params.CheckpointSink(e.Checkpoint())
			}
			return e.res, fmt.Errorf("%w after %d records: %w", ErrRunCanceled, e.res.Instructions, err)
		}
	}
	phase.EndArgs(e.res.Instructions-phaseStart, 0)
	e.finishResult()
	return e.res, nil
}

// resume restores from onto the freshly reset engine and skips the
// prefix of src it covers, a batch at a time. It returns the unstepped
// rest of the batch the prefix ends in.
func (e *Engine) resume(src trace.Source, from *Checkpoint) ([]trace.Inst, error) {
	if n := src.Name(); n != from.Trace {
		return nil, fmt.Errorf("engine: resume trace %q does not match checkpoint trace %q", n, from.Trace)
	}
	if err := e.restore(from); err != nil {
		return nil, err
	}
	for rest := from.Instructions; rest > 0; {
		ins := trace.NextBatch(src, &e.batch)
		if len(ins) == 0 {
			return nil, fmt.Errorf("engine: trace ended after %d records while skipping the %d-record checkpoint prefix",
				from.Instructions-rest, from.Instructions)
		}
		if int64(len(ins)) > rest {
			return ins[rest:], nil
		}
		rest -= int64(len(ins))
	}
	return nil, nil
}

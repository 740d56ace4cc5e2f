package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// cancelAtSource cancels a context when record n is served — the
// deterministic way to interrupt a run at a known point.
type cancelAtSource struct {
	src    trace.Source
	cancel context.CancelFunc
	at     int64
	served int64
}

func (c *cancelAtSource) Name() string { return c.src.Name() }
func (c *cancelAtSource) Reset()       { c.src.Reset(); c.served = 0 }
func (c *cancelAtSource) Next() (trace.Inst, bool) {
	c.served++
	if c.served == c.at {
		c.cancel()
	}
	return c.src.Next()
}

// TestRunContextMatchesRun: a RunBatched under a live, cancelable
// context that never fires must be the serial Run loop bit for bit, and
// the per-batch context poll must hand the sink no checkpoint.
func TestRunContextMatchesRun(t *testing.T) {
	prof := checkpointProfile()
	plain := Run(workload.New(prof), core.DefaultConfig(), fastParams(), "ctx")

	var cks []*Checkpoint
	params := fastParams()
	params.CheckpointSink = func(c *Checkpoint) { cks = append(cks, c) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := New(core.DefaultConfig(), params).RunBatched(ctx, workload.New(prof), "ctx", nil)
	if err != nil {
		t.Fatalf("RunBatched: %v", err)
	}
	if got.CPI() != plain.CPI() || got.Instructions != plain.Instructions ||
		got.Outcomes != plain.Outcomes || got.Cycles != plain.Cycles {
		t.Errorf("RunBatched diverged from Run: CPI %.9f vs %.9f", got.CPI(), plain.CPI())
	}
	if len(cks) != 0 {
		t.Errorf("uncanceled run handed the sink %d checkpoints, want 0", len(cks))
	}
}

// resumeOracle is the record-at-a-time resume RunBatched's must match:
// restore ck on e, skip its prefix one Next at a time, then step the
// rest one record at a time.
func resumeOracle(t *testing.T, e *Engine, src trace.Source, ck *Checkpoint) Result {
	t.Helper()
	e.reset()
	src.Reset()
	if err := e.restore(ck); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < ck.Instructions; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("oracle: trace ended inside the %d-record prefix", ck.Instructions)
		}
	}
	for in, ok := src.Next(); ok; in, ok = src.Next() {
		e.step(in)
	}
	e.finishResult()
	return e.res
}

// cancelRun runs src on a fresh engine through RunBatched, from ck when
// non-nil, canceling the context once the source has served at records
// (counted from its start, prefix included). It returns the checkpoint
// the canceled run hands its sink.
func cancelRun(t *testing.T, prof workload.Profile, ck *Checkpoint, at int64) *Checkpoint {
	t.Helper()
	var cks []*Checkpoint
	params := fastParams()
	params.CheckpointSink = func(c *Checkpoint) { cks = append(cks, c) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAtSource{src: workload.New(prof), cancel: cancel, at: at}
	_, err := New(core.DefaultConfig(), params).RunBatched(ctx, src, "res", ck)
	if !errors.Is(err, ErrRunCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrRunCanceled wrapping context.Canceled", err)
	}
	if len(cks) != 1 {
		t.Fatalf("sink received %d checkpoints on cancel, want 1", len(cks))
	}
	if c := cks[0]; c.Instructions < at || c.Instructions >= at+trace.DefaultBatchCapacity {
		t.Fatalf("cancel at record %d checkpointed at %d, want within one batch after it", at, c.Instructions)
	}
	return cks[0]
}

// oracleCheckpoint runs the record-at-a-time oracle, from power-on or
// from ck, checkpointing at exactly instructions, and returns that
// checkpoint.
func oracleCheckpoint(t *testing.T, prof workload.Profile, ck *Checkpoint, instructions int64) *Checkpoint {
	t.Helper()
	var ocks []*Checkpoint
	op := fastParams()
	op.CheckpointSink = func(c *Checkpoint) { ocks = append(ocks, c) }
	if ck == nil {
		op.CheckpointInterval = instructions
		Run(workload.New(prof), core.DefaultConfig(), op, "res")
	} else {
		op.CheckpointInterval = instructions - ck.Instructions
		resumeOracle(t, New(core.DefaultConfig(), op), workload.New(prof), ck)
	}
	if len(ocks) == 0 || ocks[0].Instructions != instructions {
		t.Fatalf("oracle took no checkpoint at %d", instructions)
	}
	return ocks[0]
}

// TestRunBatchedCancelCheckpointsAndResumes is the recovery core the
// zsimd service relies on: a canceled run checkpoints its exact
// stopping boundary, and resuming that checkpoint is bit-identical to a
// record-at-a-time oracle that checkpoints at the same instruction count
// and resumes — the persistence machinery adds zero divergence.
func TestRunBatchedCancelCheckpointsAndResumes(t *testing.T) {
	prof := checkpointProfile()
	ck := cancelRun(t, prof, nil, 50_000)
	if !reflect.DeepEqual(ck, oracleCheckpoint(t, prof, nil, ck.Instructions)) {
		t.Error("cancel checkpoint differs from the oracle's interval checkpoint at the same boundary")
	}
	resumed, err := New(core.DefaultConfig(), fastParams()).RunBatched(context.Background(), workload.New(prof), "res", ck)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	oracle := resumeOracle(t, New(core.DefaultConfig(), fastParams()), workload.New(prof), ck)
	requireResultsEqual(t, "resume", oracle, resumed)
}

// TestRunBatchedCancelResumeChain interrupts a run twice: each canceled
// resume must checkpoint strictly later than the checkpoint it started
// from, match the oracle's checkpoint at that boundary, and the final
// resume must match the oracle's resume of the last checkpoint.
func TestRunBatchedCancelResumeChain(t *testing.T) {
	prof := checkpointProfile()
	ck1 := cancelRun(t, prof, nil, 30_000)
	ck2 := cancelRun(t, prof, ck1, ck1.Instructions+40_000)
	if ck2.Instructions <= ck1.Instructions {
		t.Fatalf("second cancel checkpointed at %d, not past the first at %d", ck2.Instructions, ck1.Instructions)
	}
	if !reflect.DeepEqual(ck2, oracleCheckpoint(t, prof, ck1, ck2.Instructions)) {
		t.Error("chained cancel checkpoint differs from the oracle's at the same boundary")
	}
	final, err := New(core.DefaultConfig(), fastParams()).RunBatched(context.Background(), workload.New(prof), "res", ck2)
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	if final.Instructions != int64(prof.Instructions) {
		t.Fatalf("chain finished at %d records, want %d", final.Instructions, prof.Instructions)
	}
	oracle := resumeOracle(t, New(core.DefaultConfig(), fastParams()), workload.New(prof), ck2)
	requireResultsEqual(t, "chain", oracle, final)
}

// TestRunBatchedResumeMatchesOracle: an uncanceled resume must
// reproduce the record-at-a-time oracle exactly, whether the prefix ends
// inside a batch or on a batch boundary, with snapshots and warmup armed.
func TestRunBatchedResumeMatchesOracle(t *testing.T) {
	prof := checkpointProfile()
	params := fastParams()
	params.WarmupInstructions = 2_000
	params.SnapshotInterval = 20_000
	for _, at := range []int64{60_000, 50 * trace.DefaultBatchCapacity} {
		var ck *Checkpoint
		p := params
		p.CheckpointInterval = at
		p.CheckpointSink = func(c *Checkpoint) {
			if ck == nil {
				ck = c
			}
		}
		Run(workload.New(prof), core.DefaultConfig(), p, "rc")
		if ck == nil || ck.Instructions != at {
			t.Fatalf("no checkpoint taken at %d", at)
		}
		got, err := New(core.DefaultConfig(), params).RunBatched(context.Background(), workload.New(prof), "rc", ck)
		if err != nil {
			t.Fatal(err)
		}
		want := resumeOracle(t, New(core.DefaultConfig(), params), workload.New(prof), ck)
		requireResultsEqual(t, "resume at "+strconv.FormatInt(at, 10), want, got)
	}
}

// TestWriteCheckpointFileDurableRoundTrip: the atomic writer must
// produce a file that round-trips, must overwrite an existing
// checkpoint in place, and must leave no temp debris behind — the
// durability contract the jobq journal and crash recovery sit on.
func TestWriteCheckpointFileDurableRoundTrip(t *testing.T) {
	prof := checkpointProfile()
	var cks []*Checkpoint
	params := fastParams()
	params.CheckpointInterval = 40_000
	params.CheckpointSink = func(c *Checkpoint) { cks = append(cks, c) }
	Run(workload.New(prof), core.DefaultConfig(), params, "dur")
	if len(cks) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %d", len(cks))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	for i, ck := range cks[:2] { // second write overwrites the first
		if err := WriteCheckpointFile(path, ck); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := ReadCheckpointFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		// Byte-stable round trip: re-persisting what was read must
		// reproduce the on-disk encoding exactly (gob collapses nil and
		// empty slices, so struct-level DeepEqual is too strict — what
		// recovery depends on is that the persisted form is a fixed
		// point).
		var a, b bytes.Buffer
		if err := ck.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("checkpoint %d not byte-stable across the file round trip", i)
		}
		if got.Instructions != ck.Instructions || got.Trace != ck.Trace {
			t.Errorf("checkpoint %d identity changed: %d/%q", i, got.Instructions, got.Trace)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}

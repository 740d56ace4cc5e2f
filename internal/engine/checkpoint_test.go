package engine

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/workload"
)

func checkpointProfile() workload.Profile {
	return workload.Profile{
		Name: "ckpt-test", UniqueBranches: 6_000, TakenFraction: 0.65,
		Instructions: 120_000, HotFraction: 0.15, WindowFunctions: 24,
		CallsPerTransaction: 5, Seed: 21,
	}
}

// TestCheckpointIntervalFeedsSink: the engine must hand a checkpoint to
// the sink at each configured interval, with the right instruction
// counts, while the run's own result is unaffected.
func TestCheckpointIntervalFeedsSink(t *testing.T) {
	prof := checkpointProfile()
	var cks []*Checkpoint
	params := fastParams()
	params.CheckpointInterval = 40_000
	params.CheckpointSink = func(ck *Checkpoint) { cks = append(cks, ck) }
	r := Run(workload.New(prof), core.DefaultConfig(), params, "ckpt")

	plain := Run(workload.New(prof), core.DefaultConfig(), fastParams(), "ckpt")
	if r.CPI() != plain.CPI() || r.Instructions != plain.Instructions {
		t.Errorf("checkpointing changed the result: CPI %.6f vs %.6f", r.CPI(), plain.CPI())
	}
	if len(cks) != 2 { // at 40k and 80k; 120k is the end of the run
		t.Fatalf("sink received %d checkpoints, want 2", len(cks))
	}
	for i, ck := range cks {
		if want := int64(40_000 * (i + 1)); ck.Instructions != want {
			t.Errorf("checkpoint %d at %d instructions, want %d", i, ck.Instructions, want)
		}
		if ck.Trace != "ckpt-test" || ck.Config != "ckpt" {
			t.Errorf("checkpoint %d names %q/%q", i, ck.Trace, ck.Config)
		}
	}
}

func TestCheckpointWriteReadRoundTrip(t *testing.T) {
	prof := checkpointProfile()
	var ck *Checkpoint
	params := fastParams()
	params.CheckpointInterval = 60_000
	params.CheckpointSink = func(c *Checkpoint) { ck = c }
	Run(workload.New(prof), core.DefaultConfig(), params, "rt")
	if ck == nil {
		t.Fatal("no checkpoint taken")
	}

	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Error("checkpoint changed across Write/ReadCheckpoint")
	}

	// File round trip through the atomic writer.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got2) {
		t.Error("checkpoint changed across file round trip")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("NOPE\x01junk"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("ZBPC\x01 not gob"))); err == nil {
		t.Error("corrupt payload accepted")
	}
}

// TestResumeCompletesRun: a run resumed from a mid-trace checkpoint must
// process exactly the remaining records and finish with plausible
// accounting. (Transient predictor state restarts cold, so the resumed
// result is close to — not bit-identical with — the uninterrupted run;
// see docs/ROBUSTNESS.md.)
func TestResumeCompletesRun(t *testing.T) {
	prof := checkpointProfile()
	var ck *Checkpoint
	params := fastParams()
	params.CheckpointInterval = 60_000
	params.CheckpointSink = func(c *Checkpoint) { ck = c }
	full := Run(workload.New(prof), core.DefaultConfig(), params, "res")
	if ck == nil {
		t.Fatal("no checkpoint taken")
	}
	if ck.Instructions >= full.Instructions {
		t.Fatalf("checkpoint at %d, full run only %d", ck.Instructions, full.Instructions)
	}

	params2 := fastParams()
	e := New(core.DefaultConfig(), params2)
	r, err := e.RunBatched(context.Background(), workload.New(prof), "res", ck)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != full.Instructions {
		t.Errorf("resumed run processed %d instructions, full run %d", r.Instructions, full.Instructions)
	}
	if r.CPI() <= 0 {
		t.Errorf("resumed CPI %.4f not positive", r.CPI())
	}
	// Cold transients cost at most a brief re-warm: the resumed CPI
	// stays within a few percent of the uninterrupted run.
	if diff := (r.CPI() - full.CPI()) / full.CPI(); diff > 0.05 || diff < -0.05 {
		t.Errorf("resumed CPI %.4f drifted %.1f%% from full run %.4f", r.CPI(), 100*diff, full.CPI())
	}
}

// TestResumeIsDeterministic pins checkpoint/resume reproducibility bit
// for bit: two independent runs must capture deeply equal checkpoints,
// and one checkpoint round-tripped through its ZBPC wire format must
// resume twice to identical results, interval snapshots and the final
// metrics snapshot included.
func TestResumeIsDeterministic(t *testing.T) {
	prof := checkpointProfile()
	params := DefaultParams()
	params.WarmupInstructions = 2_000
	params.SnapshotInterval = 20_000
	capture := func() (*Checkpoint, Result) {
		p := params
		p.CheckpointInterval = 60_000
		var ck *Checkpoint
		p.CheckpointSink = func(c *Checkpoint) { ck = c }
		full := Run(workload.New(prof), core.DefaultConfig(), p, "det")
		if ck == nil {
			t.Fatal("no checkpoint taken")
		}
		return ck, full
	}
	ck, full := capture()
	if again, _ := capture(); !reflect.DeepEqual(ck, again) {
		t.Fatal("two independent runs captured different checkpoints")
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	wire, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resume := func() Result {
		r, err := New(core.DefaultConfig(), params).RunBatched(context.Background(), workload.New(prof), "det", wire)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := resume(), resume()
	if r1.Instructions != full.Instructions {
		t.Fatalf("resumed run counted %d instructions, uninterrupted run %d", r1.Instructions, full.Instructions)
	}
	if len(r1.Snapshots) == 0 || r1.Metrics == nil {
		t.Fatal("resumed run recorded no snapshots; the comparison would prove little")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("two resumes of one checkpoint diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestResumeRejectsWrongTrace(t *testing.T) {
	prof := checkpointProfile()
	var ck *Checkpoint
	params := fastParams()
	params.CheckpointInterval = 60_000
	params.CheckpointSink = func(c *Checkpoint) { ck = c }
	Run(workload.New(prof), core.DefaultConfig(), params, "wrong")

	other := prof
	other.Name = "some-other-trace"
	e := New(core.DefaultConfig(), fastParams())
	if _, err := e.RunBatched(context.Background(), workload.New(other), "wrong", ck); err == nil {
		t.Error("resume accepted a mismatched trace")
	}
}

func TestResumeRejectsShortTrace(t *testing.T) {
	prof := checkpointProfile()
	var ck *Checkpoint
	params := fastParams()
	params.CheckpointInterval = 100_000
	params.CheckpointSink = func(c *Checkpoint) { ck = c }
	Run(workload.New(prof), core.DefaultConfig(), params, "short")

	short := prof
	short.Instructions = 50_000 // shorter than the checkpoint prefix
	e := New(core.DefaultConfig(), fastParams())
	if _, err := e.RunBatched(context.Background(), workload.New(short), "short", ck); err == nil {
		t.Error("resume accepted a trace shorter than the checkpoint prefix")
	}
}

func TestParamsValidateCheckpointing(t *testing.T) {
	p := DefaultParams()
	p.CheckpointInterval = -1
	if err := p.Validate(); err == nil {
		t.Error("negative interval accepted")
	}
	p = DefaultParams()
	p.CheckpointInterval = 1000
	if err := p.Validate(); err == nil {
		t.Error("interval without sink accepted")
	}
	p.CheckpointSink = func(*Checkpoint) {}
	if err := p.Validate(); err != nil {
		t.Errorf("valid checkpoint params rejected: %v", err)
	}
}

// TestRunWithFaultsDeterministic pins the acceptance criterion that a
// fixed seed reproduces the degradation bit-for-bit at the engine level.
func TestRunWithFaultsDeterministic(t *testing.T) {
	prof := checkpointProfile()
	params := fastParams()
	params.Fault = fault.ZEC12Rates(77, 500, fault.Parity)
	a := Run(workload.New(prof), core.DefaultConfig(), params, "det")
	b := Run(workload.New(prof), core.DefaultConfig(), params, "det")
	if a.Cycles != b.Cycles || a.Outcomes != b.Outcomes || a.Fault != b.Fault {
		t.Errorf("faulted runs diverge: cycles %.2f/%.2f fault %+v/%+v",
			a.Cycles, b.Cycles, a.Fault, b.Fault)
	}
	if a.Fault.Injected == 0 {
		t.Fatal("no faults injected")
	}
	if a.Fault.Recovered != a.Fault.Detected {
		t.Errorf("parity recovered %d != detected %d", a.Fault.Recovered, a.Fault.Detected)
	}
}

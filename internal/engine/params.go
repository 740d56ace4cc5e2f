// Package engine is the cycle-approximate, trace-driven model of the
// zEC12 core surrounding the branch predictor — the role the authors'
// proprietary C++ performance model plays in the paper (Section 4). It
// executes an instruction trace, drives the asynchronous-lookahead search
// pipeline, the BTB1-miss detector, the I-cache (finite L1, optionally a
// finite L2 for Figure 3's "hardware mode"), applies the Table 1
// throughput rules and penalty accounting, and classifies every branch
// outcome per Figure 4's taxonomy.
//
// The model is deliberately relative-accuracy oriented: absolute CPI
// rests on fixed, uncalibrated timing constants (DispatchTicks and the
// cycle penalties), but the CPI *deltas* between configurations — the
// paper's reported quantity — derive from the same mechanisms the paper
// describes: surprise-branch redirect penalties and instruction-cache
// miss exposure.
package engine

import (
	"fmt"

	"bulkpreload/internal/core"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/predictor"
)

// The zEC12 core timing model, in cycles unless noted. The prediction
// rates are predictor.DefaultThroughput (Table 1) and the instruction
// caches cache.L1IConfig and cache.L2IConfig.
const (
	// DispatchTicks is the steady-state cost of one instruction in ticks
	// (12 ticks = 1 cycle): the base CPI absent all modeled penalties.
	// 9 ticks (0.75 cycles/instruction) reflects a superscalar core that
	// still stalls on dependences.
	DispatchTicks predictor.Ticks = 9

	// MispredictPenalty is the restart cost of a resolved-wrong branch:
	// wrong dynamic direction, wrong target, or a surprise resolved
	// opposite to its static guess (discovered at execute).
	MispredictPenalty = 24

	// SurpriseTakenPenalty is the decode-time redirect cost of a surprise
	// branch correctly guessed taken: the target is computed at decode,
	// so the pipeline refetches without waiting for execute.
	SurpriseTakenPenalty = 10

	// L1IMissPenalty is the demand L1I miss cost when the next level
	// hits. The paper's simulations model L2+ as infinite, so this is
	// the only I-cache penalty in "simulation mode".
	L1IMissPenalty = 15

	// L2IMissPenalty is the additional cost when the finite L2I also
	// misses; only applied in hardware mode (Params.FiniteL2).
	L2IMissPenalty = 60

	// MaxLeadCycles caps how far the lookahead predictor may run ahead of
	// decode (prediction-queue depth).
	MaxLeadCycles = 40

	// PredictionSlack is the number of cycles a prediction may trail the
	// ideal lookahead point and still steer the branch at decode: the
	// fetch-to-decode pipeline depth. Predictions later than this are
	// latency surprises.
	PredictionSlack = 8
)

// Params selects what a run varies around the fixed timing model: the
// warmup, the Figure 3 hardware mode, soft-error injection, and the
// observability and checkpoint plumbing.
type Params struct {
	// WarmupInstructions are executed normally but excluded from the
	// reported cycle and outcome counts, like the paper's representative
	// trace snippets that start with warm predictors. If a trace is
	// shorter than the warmup, everything is counted.
	WarmupInstructions int64

	// FiniteL2 enables the finite second-level instruction cache
	// (hardware mode, Figure 3); otherwise every L1I miss hits beyond.
	FiniteL2 bool

	// EventTracer, when non-nil, receives every hierarchy event of the
	// run (see core.Tracer). For observability tooling; adds inline
	// call overhead.
	EventTracer core.Tracer `json:"-"`

	// SnapshotInterval, when positive, makes the engine capture a full
	// registry snapshot every SnapshotInterval committed instructions
	// (and once at the end of the run) into Result.Snapshots, enabling
	// phase timelines over long simulations. It also switches the
	// hierarchy's detail metrics on (promotion age, miss-to-install).
	SnapshotInterval int64

	// SnapshotSink, when non-nil, additionally receives each interval
	// snapshot as it is taken — e.g. obs.(*Live).Publish for live HTTP
	// introspection of a running simulation.
	SnapshotSink func(obs.Snapshot) `json:"-"`

	// Fault configures soft-error injection into the predictor arrays
	// for this run (see internal/fault); New arms the hierarchy with it.
	// The zero value disables injection.
	Fault fault.Config

	// CheckpointInterval, when positive, makes the engine capture a
	// checkpoint of the simulation state every CheckpointInterval
	// committed instructions, feeding each to CheckpointSink. Long runs
	// resume from the latest one after a crash (see Engine.RunBatched).
	CheckpointInterval int64

	// CheckpointSink receives each interval checkpoint, and the one a
	// canceled RunBatched takes at its stopping boundary. Required when
	// CheckpointInterval is positive (a checkpoint nobody persists is
	// pure overhead).
	CheckpointSink func(*Checkpoint) `json:"-"`

	// Spans, when non-nil, receives hierarchical span events from the
	// batched stepping path: one phase span per warmup/steady region and
	// one batch span per StepBatch call, with bulk/slow fast-path
	// attribution. The recorder is goroutine-local like the obs registry
	// — it must belong to the goroutine calling RunBatched. Span data
	// measures host wall time and never reaches Result or the metrics
	// registry (the serial-oracle differential gate compares those
	// bit-for-bit). Nil disables tracing at zero cost.
	Spans *span.Recorder `json:"-"`

	// SpanParent is the span the run's phase spans attach under (the
	// scheduler's unit span); zero makes them roots.
	SpanParent span.ID `json:"-"`
}

// DefaultParams returns the simulation-mode parameter set used throughout
// the experiments.
func DefaultParams() Params {
	return Params{WarmupInstructions: 100_000}
}

// HardwareParams returns the Figure 3 "hardware mode": identical to
// DefaultParams but with the finite L2I enabled, exposing miss penalties
// the BTB2 cannot remove and shrinking its relative gain, as measured on
// the real machine.
func HardwareParams() Params {
	p := DefaultParams()
	p.FiniteL2 = true
	return p
}

// Validate checks the parameter set.
func (p Params) Validate() error {
	if p.WarmupInstructions < 0 {
		return fmt.Errorf("engine: WarmupInstructions must be non-negative")
	}
	if p.SnapshotInterval < 0 {
		return fmt.Errorf("engine: SnapshotInterval must be non-negative")
	}
	if p.CheckpointInterval < 0 {
		return fmt.Errorf("engine: CheckpointInterval must be non-negative")
	}
	if p.CheckpointInterval > 0 && p.CheckpointSink == nil {
		return fmt.Errorf("engine: CheckpointInterval set without a CheckpointSink")
	}
	return p.Fault.Validate()
}

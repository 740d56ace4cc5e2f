// Package engine is the cycle-approximate, trace-driven model of the
// zEC12 core surrounding the branch predictor — the role the authors'
// proprietary C++ performance model plays in the paper (Section 4). It
// executes an instruction trace, drives the asynchronous-lookahead search
// pipeline, the BTB1-miss detector, the I-cache (finite L1, optionally a
// finite L2 for Figure 3's "hardware mode"), applies the Table 1
// throughput rules and penalty accounting, and classifies every branch
// outcome per Figure 4's taxonomy.
//
// The model is deliberately relative-accuracy oriented: absolute CPI is
// parameterized (Params) and uncalibrated, but the CPI *deltas* between
// configurations — the paper's reported quantity — derive from the same
// mechanisms the paper describes: surprise-branch redirect penalties and
// instruction-cache miss exposure.
package engine

import (
	"fmt"

	"bulkpreload/internal/cache"
	"bulkpreload/internal/core"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/predictor"
)

// Params fixes the core timing model. All penalties are in cycles.
type Params struct {
	// DispatchTicks is the steady-state cost of one instruction in ticks
	// (12 ticks = 1 cycle): the base CPI absent all modeled penalties.
	// The default 9 (0.75 cycles/instruction) reflects a superscalar
	// core that still stalls on dependences.
	DispatchTicks predictor.Ticks

	// MispredictPenalty is the restart cost of a resolved-wrong branch:
	// wrong dynamic direction, wrong target, or a surprise resolved
	// opposite to its static guess (discovered at execute).
	MispredictPenalty int

	// SurpriseTakenPenalty is the decode-time redirect cost of a surprise
	// branch correctly guessed taken: the target is computed at decode,
	// so the pipeline refetches without waiting for execute.
	SurpriseTakenPenalty int

	// L1IMissPenalty is the demand L1I miss cost when the next level
	// hits. The paper's simulations model L2+ as infinite, so this is
	// the only I-cache penalty in "simulation mode".
	L1IMissPenalty int

	// L2IMissPenalty is the additional cost when the finite L2I also
	// misses; only applied in hardware mode (FiniteL2).
	L2IMissPenalty int

	// MaxLeadCycles caps how far the lookahead predictor may run ahead of
	// decode (prediction-queue depth).
	MaxLeadCycles int

	// PredictionSlack is the number of cycles a prediction may trail the
	// ideal lookahead point and still steer the branch at decode: the
	// fetch-to-decode pipeline depth. Predictions later than this are
	// latency surprises.
	PredictionSlack int

	// WarmupInstructions are executed normally but excluded from the
	// reported cycle and outcome counts, like the paper's representative
	// trace snippets that start with warm predictors. If a trace is
	// shorter than the warmup, everything is counted.
	WarmupInstructions int64

	// Throughput is the Table 1 prediction-rate set.
	Throughput predictor.Throughput

	// L1I is the first-level instruction cache geometry.
	L1I cache.Config

	// FiniteL2 enables the finite second-level instruction cache
	// (hardware mode, Figure 3); otherwise every L1I miss hits beyond.
	FiniteL2 bool
	L2I      cache.Config

	// ModelWrongPath lets the lookahead search pipeline run down the
	// mispredicted path during the restart penalty window, as the
	// paper's C++ model does ("wrong path execution is modeled"): the
	// off-path searches pollute the miss detector, the BTB2 trackers and
	// the I-cache prefetch stream, and the path history is repaired at
	// restart.
	ModelWrongPath bool

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
	// for this run, overriding any fault configuration already in the
	// hierarchy config (the hierarchy config stays the canonical place;
	// this knob exists so studies can sweep fault rates without forking
	// configs). The zero value leaves the hierarchy config untouched.
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
	return Params{
		DispatchTicks:        9, // 0.75 cycles/instruction base
		MispredictPenalty:    24,
		SurpriseTakenPenalty: 10,
		L1IMissPenalty:       15,
		L2IMissPenalty:       60,
		MaxLeadCycles:        40,
		PredictionSlack:      8,
		WarmupInstructions:   100_000,
		ModelWrongPath:       true,
		Throughput:           predictor.DefaultThroughput,
		L1I:                  cache.L1IConfig,
		L2I:                  cache.L2IConfig,
	}
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
	if p.DispatchTicks <= 0 {
		return fmt.Errorf("engine: DispatchTicks must be positive")
	}
	if p.MispredictPenalty < 0 || p.SurpriseTakenPenalty < 0 ||
		p.L1IMissPenalty < 0 || p.L2IMissPenalty < 0 {
		return fmt.Errorf("engine: penalties must be non-negative")
	}
	if p.MaxLeadCycles <= 0 {
		return fmt.Errorf("engine: MaxLeadCycles must be positive")
	}
	if p.PredictionSlack < 0 || p.WarmupInstructions < 0 {
		return fmt.Errorf("engine: PredictionSlack and WarmupInstructions must be non-negative")
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
	if err := p.Fault.Validate(); err != nil {
		return err
	}
	if err := p.Throughput.Validate(); err != nil {
		return err
	}
	if err := p.L1I.Validate(); err != nil {
		return err
	}
	if p.FiniteL2 {
		if err := p.L2I.Validate(); err != nil {
			return err
		}
	}
	return nil
}

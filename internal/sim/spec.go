package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// Spec is a reproducible experiment description: which workload, which
// hierarchy configuration, and which engine parameters. Specs serialize
// to JSON so experiment setups can be versioned and replayed exactly
// (`zsim -spec file.json`).
type Spec struct {
	// Workload selection: a Table 4 profile name, a ZBPT trace file, or
	// a fully custom profile. Exactly one must be set.
	Trace     string            `json:"trace,omitempty"`
	TraceFile string            `json:"traceFile,omitempty"`
	Profile   *workload.Profile `json:"profile,omitempty"`

	// Instructions overrides the trace length for named profiles.
	Instructions int `json:"instructions,omitempty"`

	// Config is a Table 3 configuration name ("no-btb2", "btb2",
	// "large-btb1"); Custom overrides it with a full configuration.
	Config string       `json:"config,omitempty"`
	Custom *core.Config `json:"custom,omitempty"`

	// Params overrides the default engine parameters when present.
	Params *engine.Params `json:"params,omitempty"`
}

// Validate checks the spec's internal consistency.
func (s Spec) Validate() error {
	n := 0
	if s.Trace != "" {
		n++
	}
	if s.TraceFile != "" {
		n++
	}
	if s.Profile != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("sim: spec needs exactly one of trace, traceFile, profile (got %d)", n)
	}
	if s.Custom == nil {
		if _, ok := Table3()[s.configName()]; !ok {
			return fmt.Errorf("sim: unknown configuration %q", s.configName())
		}
	} else if err := s.Custom.Validate(); err != nil {
		return err
	}
	if s.Params != nil {
		if err := s.Params.Validate(); err != nil {
			return err
		}
	}
	if s.Profile != nil {
		if err := s.Profile.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s Spec) configName() string {
	if s.Config == "" {
		return ConfigBTB2
	}
	return s.Config
}

// source builds the trace source the spec describes.
func (s Spec) source() (trace.Source, error) {
	switch {
	case s.Trace != "":
		insts := s.Instructions
		p, err := workload.ByName(s.Trace, insts)
		if err != nil {
			return nil, err
		}
		return workload.New(p), nil
	case s.TraceFile != "":
		return trace.ReadFile(s.TraceFile)
	case s.Profile != nil:
		return workload.New(*s.Profile), nil
	default:
		return nil, fmt.Errorf("sim: empty spec")
	}
}

// Run executes the spec as one unit on the worker pool and returns the
// result.
func (s Spec) Run() (engine.Result, error) {
	u, err := s.Unit()
	if err != nil {
		return engine.Result{}, err
	}
	res, err := RunUnits(context.Background(), 1, []Unit{u})
	return res[0], err
}

// Unit converts a validated spec into one schedulable simulation unit —
// the currency of RunUnits and of the zsimd job service. Named-profile
// and custom-profile specs build a fresh deterministic source per run;
// TraceFile specs are loaded once here (errors surface at admission
// time, not on a worker) and replayed via Reset.
func (s Spec) Unit() (Unit, error) {
	if err := s.Validate(); err != nil {
		return Unit{}, err
	}
	cfg := Table3()[s.configName()]
	name := s.configName()
	if s.Custom != nil {
		cfg = *s.Custom
		name = "custom"
	}
	params := engine.DefaultParams()
	if s.Params != nil {
		params = *s.Params
	}
	src, err := s.source()
	if err != nil {
		return Unit{}, err
	}
	return Unit{
		Label:      src.Name() + "/" + name,
		NewSource:  func() trace.Source { src.Reset(); return src },
		Config:     cfg,
		Params:     params,
		ConfigName: name,
	}, nil
}

// LoadSpec reads and validates a JSON spec file. An unknown key, such as
// a misspelled field or a knob the model no longer has, is an error.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	return s, nil
}

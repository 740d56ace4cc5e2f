package sim

import (
	"context"
	"fmt"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// FaultPoint is one row of the soft-error degradation study: the
// two-level configuration run under one base fault rate and one
// protection model.
type FaultPoint struct {
	// RatePerM is the base injection rate (faults per million valid
	// entry reads); per-structure rates derive from it via
	// fault.ZEC12Rates.
	RatePerM   float64
	Protection fault.Protection

	CPI     float64
	BadRate float64 // bad branch outcomes, percent of all outcomes

	// DeltaCPIPct is the CPI degradation relative to the fault-free run
	// of the same configuration (positive = slower under faults).
	DeltaCPIPct float64

	// Stats aggregates injected/detected/recovered/silent across all
	// structures for the run.
	Stats fault.Stats
}

// FaultStudy measures how predictor accuracy and CPI degrade as the
// soft-error rate rises, under both protection models. For each rate in
// rates it runs the shipping two-level configuration twice — unprotected
// (silent corruption propagates) and parity (detect on read, invalidate,
// let the semi-exclusive BTB2 refetch) — plus one fault-free reference
// run that anchors DeltaCPIPct. The fault seed is the workload seed, so
// a fixed profile reproduces the same strike sites run after run.
//
// Points are ordered rate-major (unprotected then parity within a rate);
// failed shards stay zero-valued and surface in the returned error.
func FaultStudy(profile workload.Profile, params engine.Params, rates []float64) ([]FaultPoint, error) {
	return FaultStudyConfig(profile, core.DefaultConfig(), params, rates)
}

// FaultStudyConfig is FaultStudy under an explicit hierarchy
// configuration. The layout differential suite runs it once per storage
// layout: the fault model is defined over each entry's logical payload
// bits, not its physical words, so identical seeds must corrupt both
// layouts identically and the study's points must match exactly.
//
// The profile's trace is recorded once and every run (the fault-free
// reference first, then each rate x protection point) replays that
// read-only slice as one RunUnits unit on a GOMAXPROCS-wide pool, so
// the study holds about 32 B x profile.Instructions of trace in memory.
// A panicking run is isolated like any other unit: a failed fault-free
// run no longer takes down the caller, it leaves every DeltaCPIPct at
// 0, and its error is returned.
func FaultStudyConfig(profile workload.Profile, cfg core.Config, params engine.Params, rates []float64) ([]FaultPoint, error) {
	src := workload.New(profile)
	name := src.Name()
	ins := trace.Collect(src)
	unit := func(label string, p engine.Params) Unit {
		return Unit{
			Label:      name + "/" + label,
			NewSource:  func() trace.Source { return trace.NewSliceSource(name, ins) },
			Config:     cfg,
			Params:     p,
			ConfigName: ConfigBTB2,
		}
	}

	prots := []fault.Protection{fault.Unprotected, fault.Parity}
	units := make([]Unit, 0, 1+len(rates)*len(prots))
	units = append(units, unit("fault-free", params))
	for _, rate := range rates {
		for _, prot := range prots {
			p := params
			p.Fault = fault.ZEC12Rates(uint64(profile.Seed), rate, prot)
			units = append(units, unit(fmt.Sprintf("%g/%s", rate, prot), p))
		}
	}
	res, err := RunUnits(context.Background(), 0, units)

	cleanCPI := res[0].CPI()
	out := make([]FaultPoint, len(units)-1)
	for i := range out {
		r := res[1+i]
		if r.Instructions == 0 {
			continue // a failed run stays zero-valued; err reports it
		}
		pt := FaultPoint{
			RatePerM:   rates[i/len(prots)],
			Protection: prots[i%len(prots)],
			CPI:        r.CPI(),
			BadRate:    100 * r.Outcomes.BadRate(),
			Stats:      r.Fault,
		}
		if cleanCPI != 0 {
			pt.DeltaCPIPct = 100 * (pt.CPI - cleanCPI) / cleanCPI
		}
		out[i] = pt
	}
	return out, err
}

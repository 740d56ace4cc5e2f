package sim

import (
	"context"
	"fmt"
	"runtime"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
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
//
// Every run (the fault-free reference first, then each rate x
// protection point) is one ProfileUnit on a GOMAXPROCS-wide RunUnits
// pool that generates its records straight into the engine's batch
// from the profile's one shared compiled program, so no run records
// the trace and the study's memory does not grow with
// profile.Instructions. A panicking run is isolated like any other
// unit: a failed fault-free run no longer takes down the caller, it
// leaves every DeltaCPIPct at 0, and its error is returned.
func FaultStudy(profile workload.Profile, params engine.Params, rates []float64) ([]FaultPoint, error) {
	cfg := core.DefaultConfig()
	// pin holds the shared compiled program across the whole pool:
	// without a live Source, one finalized between units would make
	// the next unit compile the program again.
	pin := workload.New(profile)
	unit := func(label string, p engine.Params) Unit {
		u := ProfileUnit(profile, cfg, p, ConfigBTB2)
		u.Label = profile.Name + "/" + label
		return u
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
	runtime.KeepAlive(pin)

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

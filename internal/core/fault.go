package core

import (
	"strings"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
)

// attachInjectors builds one fault injector per configured structure and
// hands it to the structure. Structures with a zero rate (or absent from
// the configuration) keep a nil injector — the free disabled state;
// disabled injection costs one nil pointer check per array read.
// Called once from New; the FIT is deliberately outside the fault model:
// a stale FIT entry only forfeits a re-index acceleration it would have
// earned, which the accuracy/CPI studies cannot observe.
//
// The injector domain is btb's 72-bit logical entry payload. This
// wiring never reads its bit positions; btb's TestPayloadLayout pins
// them.
func (h *Hierarchy) attachInjectors(fc fault.Config) {
	if !fc.Enabled() {
		return
	}
	mk := func(name string, perM float64) *fault.Injector {
		return fault.NewInjector(name, perM, fc.Protection, fault.DeriveSeed(fc.Seed, name))
	}
	h.btb1.SetInjector(mk("btb1", fc.BTB1PerM))
	h.btbp.SetInjector(mk("btbp", fc.BTBPPerM))
	if h.btb2 != nil {
		h.btb2.SetInjector(mk("btb2", fc.BTB2PerM))
	}
	h.pht.SetInjector(mk("pht", fc.PHTPerM))
	h.ctb.SetInjector(mk("ctb", fc.CTBPerM))
	h.sbht.SetInjector(mk("sbht", fc.SBHTPerM))
}

// FaultInjectors returns the attached injectors, densest structure
// first; nil entries (disabled structures) are omitted. Empty when fault
// injection is off.
func (h *Hierarchy) FaultInjectors() []*fault.Injector {
	var out []*fault.Injector
	add := func(j *fault.Injector) {
		if j != nil {
			out = append(out, j)
		}
	}
	add(h.btb1.Injector())
	add(h.btbp.Injector())
	if h.btb2 != nil {
		add(h.btb2.Injector())
	}
	add(h.pht.Injector())
	add(h.ctb.Injector())
	add(h.sbht.Injector())
	return out
}

// FaultStats aggregates injection counters across every structure.
func (h *Hierarchy) FaultStats() fault.Stats {
	var s fault.Stats
	for _, j := range h.FaultInjectors() {
		s.Add(j.Stats())
	}
	return s
}

// registerFaultMetrics enumerates each injector's counters into r as
// "fault_<structure>_*". Called from RegisterMetrics.
func (h *Hierarchy) registerFaultMetrics(r *obs.Registry) {
	for _, j := range h.FaultInjectors() {
		j.RegisterMetrics(r, "fault_"+strings.ToLower(j.Name())+"_")
	}
}

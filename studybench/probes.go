package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/btb"
	"bulkpreload/internal/core"
	"bulkpreload/internal/ctb"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/history"
	"bulkpreload/internal/pht"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

// The isolated probes time public layer calls one at a time, on one
// profile's records fixed before any timing starts. They supply the
// layer rates a study cannot split out from the inside (the serial
// engine path, the hierarchy's search and predict/resolve, the tables,
// fault injection), and a value for the source layers a workload does
// not run in its timed region, so every workload reports every metric.

// probeEpoch is the cycle the hierarchy probes start at: far past the
// end of the warming run, so time never runs backwards and the first
// call drains everything the run left pending.
const probeEpoch = uint64(1) << 40

// probePasses repeats the cheaper probes; each reports its median pass.
const probePasses = 3

// runProbes writes every isolated metric into m.
func runProbes(prof workload.Profile, params engine.Params, m map[string]float64) error {
	t0 := time.Now()
	src := workload.New(prof)
	build := time.Since(t0)
	t0 = time.Now()
	ins := trace.Collect(src)
	gen := time.Since(t0)
	n := float64(len(ins))
	if n == 0 {
		return fmt.Errorf("probe: profile %s generated no records", prof.Name)
	}
	m["workload.build_ms_per_unit"] = ms(build)
	m["workload.gen_ns_per_record"] = ns(gen) / n

	var wire bytes.Buffer
	if _, err := trace.WriteSlice(&wire, prof.Name, ins); err != nil {
		return fmt.Errorf("probe: encode trace: %w", err)
	}
	dec, err := decodeProbe(wire.Bytes())
	if err != nil {
		return err
	}
	m["trace.decode_ns_per_record"] = dec

	// The fault-free serial run also warms the hierarchy the core probes use.
	slice := trace.NewSliceSource(prof.Name, ins)
	cfg := core.DefaultConfig()
	eng := engine.New(cfg, params)
	t0 = time.Now()
	res := eng.Run(slice, sim.ConfigBTB2)
	clean := time.Since(t0)
	m["engine.serial_ns_per_record"] = ns(clean) / n
	coreMetrics(m, []engine.Result{res})

	// Fault injection at the top rate, averaged over both protections.
	var faulty time.Duration
	var st fault.Stats
	prots := []fault.Protection{fault.Unprotected, fault.Parity}
	for _, prot := range prots {
		p := params
		p.Fault = fault.ZEC12Rates(uint64(prof.Seed), faultRates[len(faultRates)-1], prot)
		t0 = time.Now()
		r := engine.Run(slice, cfg, p, sim.ConfigBTB2)
		faulty += time.Since(t0)
		st.Add(r.Fault)
	}
	m["fault.inject_ns_per_record"] = (ns(faulty)/float64(len(prots)) - ns(clean)) / n
	m["fault.injected_total"] = float64(st.Injected)
	m["fault.recovered_frac"] = ratio(float64(st.Recovered), float64(st.Injected))

	var branches []trace.Inst
	for _, in := range ins {
		if in.IsBranch() {
			branches = append(branches, in)
		}
	}
	if len(branches) == 0 {
		return fmt.Errorf("probe: profile %s has no branches", prof.Name)
	}
	h := eng.Hierarchy()
	m["core.search_ns_per_row"] = searchProbe(h, ins)
	m["core.predict_resolve_ns_per_branch"] = predictResolveProbe(h, branches)
	tableProbes(m, branches)
	return nil
}

// decodeProbe decodes the wire image through trace.BatchDecoder and
// returns the median pass's ns per record.
func decodeProbe(wire []byte) (float64, error) {
	batch := trace.NewBatch(trace.DefaultBatchCapacity)
	passes := make([]float64, 0, probePasses)
	for p := 0; p < probePasses; p++ {
		t0 := time.Now()
		dec, err := trace.NewBatchDecoder(bytes.NewReader(wire), trace.DefaultBatchCapacity)
		if err != nil {
			return 0, fmt.Errorf("probe: decode: %w", err)
		}
		var records int
		for {
			err := dec.Next(&batch)
			records += len(batch.Ins)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, fmt.Errorf("probe: decode: %w", err)
			}
		}
		passes = append(passes, ns(time.Since(t0))/float64(records))
	}
	return median(passes), nil
}

// searchProbe times Hierarchy.SearchLine over the rows the trace visits,
// in trace order, and returns the median pass's ns per row.
func searchProbe(h *core.Hierarchy, ins []trace.Inst) float64 {
	var rows []zaddr.Addr
	for _, in := range ins {
		r := zaddr.RowBase(in.Addr)
		if len(rows) == 0 || rows[len(rows)-1] != r {
			rows = append(rows, r)
		}
	}
	passes := make([]float64, 0, probePasses)
	for p := 0; p < probePasses; p++ {
		t0 := time.Now()
		for _, r := range rows {
			h.SearchLine(r, probeEpoch)
		}
		passes = append(passes, ns(time.Since(t0))/float64(len(rows)))
	}
	return median(passes)
}

// predictResolveProbe replays the trace's branches through Predict and
// Resolve on the warmed hierarchy and returns the median pass's ns per
// branch. The hierarchy keeps training across passes, as it would.
func predictResolveProbe(h *core.Hierarchy, branches []trace.Inst) float64 {
	now := probeEpoch
	passes := make([]float64, 0, probePasses)
	for p := 0; p < probePasses; p++ {
		t0 := time.Now()
		for i := range branches {
			in := branches[i]
			now += 4
			if pred, ok := h.Predict(in.Addr, now); ok {
				h.Resolve(in, &pred, now)
			} else {
				h.Resolve(in, nil, now)
			}
		}
		passes = append(passes, ns(time.Since(t0))/float64(len(branches)))
	}
	return median(passes)
}

// tableProbes times single table calls at the default geometries over
// the trace's branch addresses, each table warmed with those branches.
func tableProbes(m map[string]float64, branches []trace.Inst) {
	entry := func(in trace.Inst) btb.Entry {
		return btb.Entry{Addr: in.Addr, Target: in.Target, Dir: bht.Init(in.Taken), Length: in.Length}
	}
	t := btb.New(btb.BTB1Config)
	for _, in := range branches {
		t.Insert(entry(in))
	}
	var hits []btb.Hit
	m["btb.lookup_ns"] = perOp(branches, func(in trace.Inst) { hits = t.LookupLine(in.Addr, hits[:0]) })
	m["btb.insert_ns"] = perOp(branches, func(in trace.Inst) { t.Insert(entry(in)) })

	var h history.History
	pt := pht.New(pht.DefaultEntries)
	ct := ctb.New(ctb.DefaultEntries)
	for _, in := range branches {
		pt.Update(&h, in.Addr, in.Taken)
		ct.Update(&h, in.Addr, in.Target)
		h.RecordPrediction(in.Addr, in.Taken)
	}
	m["pht.lookup_ns"] = perOp(branches, func(in trace.Inst) { pt.Lookup(&h, in.Addr) })
	m["ctb.lookup_ns"] = perOp(branches, func(in trace.Inst) { ct.Lookup(&h, in.Addr) })
}

// perOp calls f on every branch for the median of probePasses passes
// and returns ns per call.
func perOp(branches []trace.Inst, f func(trace.Inst)) float64 {
	passes := make([]float64, 0, probePasses)
	for p := 0; p < probePasses; p++ {
		t0 := time.Now()
		for i := range branches {
			f(branches[i])
		}
		passes = append(passes, ns(time.Since(t0))/float64(len(branches)))
	}
	return median(passes)
}

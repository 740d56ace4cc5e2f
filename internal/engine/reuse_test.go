package engine

import (
	"reflect"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// TestReusedEngineMatchesFresh pins the in-place reset: an engine that
// already ran another trace must return, through both Run and
// RunBatched, a result deeply equal to a freshly built engine's, the
// final metrics snapshot and every interval snapshot included.
func TestReusedEngineMatchesFresh(t *testing.T) {
	multi := core.DefaultConfig()
	multi.MultiBlockTransfer = true
	faults := fastParams()
	faults.Fault = fault.ZEC12Rates(7, 500, fault.Parity)
	detail := fastParams()
	detail.WarmupInstructions = 5_000
	detail.SnapshotInterval = 10_000
	detail.FiniteL2 = true
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		params Params
	}{
		{"btb2", core.DefaultConfig(), fastParams()},
		{"multiblock", multi, fastParams()},
		{"one-level", core.OneLevelConfig(), fastParams()},
		{"faults", core.DefaultConfig(), faults},
		{"detail-finite-l2", core.DefaultConfig(), detail},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, path := range []struct {
				name string
				run  func(*Engine, trace.Source) Result
			}{
				{"Run", func(e *Engine, src trace.Source) Result { return e.Run(src, tc.name) }},
				{"RunBatched", func(e *Engine, src trace.Source) Result { return runBatched(t, e, src, tc.name) }},
			} {
				fresh := path.run(New(tc.cfg, tc.params), workload.New(batchProfile(11)))
				e := New(tc.cfg, tc.params)
				path.run(e, workload.New(checkpointProfile()))
				reused := path.run(e, workload.New(batchProfile(11)))
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s: reused engine diverged from a fresh one:\n  fresh:  %v\n  reused: %v", path.name, fresh, reused)
				}
			}
		})
	}
}

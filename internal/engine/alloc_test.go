package engine

import (
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// allocRecords is the shorter run of TestRunAllocsFlatInRecords; the
// longer run is four times it.
const allocRecords = 50_000

// allocSlack bounds how many more allocations the 4x run may make than
// the 1x run. A per-record allocation firing once in 10,000 records adds
// 15 over the extra 150,000 records, so anything at or above that rate
// fails.
const allocSlack = 12

// allocNoise is the margin over a case's measured per-run count:
// AllocsPerRun reads the process-wide malloc count, so a runtime or
// finalizer allocation landing inside a run adds one now and then.
const allocNoise = 4

// TestRunAllocsFlatInRecords pins the engine's zero-allocation steady
// state end to end: on one warmed engine, allocations per run must not
// grow with the number of records, through both Run and RunBatched, with
// the BTB2 transfer path, multi-block chasing, fault injection and the
// ablation knobs armed. A warmed engine also pays at most a fixed
// count per run, the case's allocs plus allocNoise: the engine is built
// once and reset in place, so a run allocates only the final registry
// snapshot its Result carries (more series, and so more allocations,
// with fault injectors armed). These runs reach the per-record functions of the
// predictor stack (docs/STATIC_ANALYSIS.md, "Retired analyzers", lists
// the few they do not), so an allocation on any of them shows up as a
// count that scales with the trace.
func TestRunAllocsFlatInRecords(t *testing.T) {
	prof, err := workload.ByName("zos-lspr-cb84", allocRecords)
	if err != nil {
		t.Fatal(err)
	}
	long := prof
	long.Instructions = 4 * allocRecords
	multi := core.DefaultConfig()
	multi.MultiBlockTransfer = true
	// The ablation knobs reach the direct BTB1 install and the inclusive
	// BTB2 touch; unprotected faults reach the silent-corruption writes,
	// at a rate high enough to strike the rarely read CTB too.
	ablations := core.DefaultConfig()
	ablations.BypassBTBP = true
	ablations.Policy = core.Inclusive
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		fault  fault.Config
		allocs float64 // measured allocations per run of a warmed engine
	}{
		{"default", core.DefaultConfig(), fault.Config{}, 8},
		{"multiblock", multi, fault.Config{}, 8},
		{"faults", core.DefaultConfig(), fault.ZEC12Rates(uint64(prof.Seed), 500, fault.Parity), 16},
		{"ablations", ablations, fault.ZEC12Rates(uint64(prof.Seed), 20_000, fault.Unprotected), 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := fastParams()
			params.Fault = tc.fault
			e := New(tc.cfg, params)
			short, longSrc := workload.New(prof), workload.New(long)
			for _, path := range []struct {
				name string
				run  func(trace.Source) Result
			}{
				{"Run", func(src trace.Source) Result { return e.Run(src, tc.name) }},
				{"RunBatched", func(src trace.Source) Result { return runBatched(t, e, src, tc.name) }},
			} {
				var res Result
				// AllocsPerRun warms the engine with one untimed run
				// before the measured one.
				n := testing.AllocsPerRun(1, func() { res = path.run(short) })
				n4 := testing.AllocsPerRun(1, func() { res = path.run(longSrc) })
				if res.Instructions != int64(long.Instructions) {
					t.Fatalf("%s: ran %d records, want %d", path.name, res.Instructions, long.Instructions)
				}
				if tc.fault.Enabled() && res.Fault.Injected == 0 {
					t.Fatalf("%s: no fault injected", path.name)
				}
				t.Logf("%s: %.0f allocations at %d records, %.0f at %d", path.name, n, prof.Instructions, n4, long.Instructions)
				if n4 > n+allocSlack {
					t.Errorf("%s: %.0f allocations at %d records but %.0f at %d: something on the per-record path allocates",
						path.name, n, prof.Instructions, n4, long.Instructions)
				}
				if max(n, n4) > tc.allocs+allocNoise {
					t.Errorf("%s: %.0f and %.0f allocations per run, want at most %.0f: something on the per-run path allocates",
						path.name, n, n4, tc.allocs+allocNoise)
				}
			}
		})
	}
}

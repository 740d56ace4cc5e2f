package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

func faultStudyProfile() workload.Profile {
	return workload.Profile{
		Name: "fault-study", UniqueBranches: 4_000, TakenFraction: 0.62,
		Instructions: 80_000, HotFraction: 0.2, WindowFunctions: 16,
		CallsPerTransaction: 4, Seed: 17,
	}
}

func fastStudyParams() engine.Params {
	p := engine.DefaultParams()
	p.WarmupInstructions = 0
	return p
}

func TestFaultStudyShape(t *testing.T) {
	rates := []float64{10, 1000}
	pts, err := FaultStudy(faultStudyProfile(), fastStudyParams(), rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(rates)*2 {
		t.Fatalf("got %d points, want %d (rates x protections)", len(pts), len(rates)*2)
	}
	for i, pt := range pts {
		wantRate := rates[i/2]
		wantProt := []fault.Protection{fault.Unprotected, fault.Parity}[i%2]
		if pt.RatePerM != wantRate || pt.Protection != wantProt {
			t.Errorf("point %d is (%g, %s), want (%g, %s)",
				i, pt.RatePerM, pt.Protection, wantRate, wantProt)
		}
		if pt.CPI <= 0 {
			t.Errorf("point %d: non-positive CPI %v", i, pt.CPI)
		}
		if pt.Stats.Injected == 0 {
			t.Errorf("point %d: rate %g injected no faults", i, pt.RatePerM)
		}
		switch pt.Protection {
		case fault.Unprotected:
			if pt.Stats.Detected != 0 || pt.Stats.Recovered != 0 {
				t.Errorf("point %d: unprotected run detected faults: %+v", i, pt.Stats)
			}
		case fault.Parity:
			if pt.Stats.Recovered != pt.Stats.Detected {
				t.Errorf("point %d: recovered %d != detected %d",
					i, pt.Stats.Recovered, pt.Stats.Detected)
			}
			if pt.Stats.Silent != 0 {
				t.Errorf("point %d: parity run has %d silent corruptions", i, pt.Stats.Silent)
			}
		}
	}
}

// TestFaultStudyDeterministic pins the acceptance criterion that the
// degradation table is bit-for-bit reproducible with a fixed seed, even
// though the study's shards run on arbitrary goroutines.
func TestFaultStudyDeterministic(t *testing.T) {
	rates := []float64{100}
	a, err := FaultStudy(faultStudyProfile(), fastStudyParams(), rates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultStudy(faultStudyProfile(), fastStudyParams(), rates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical studies produced different tables:\n%+v\n%+v", a, b)
	}
}

// TestFaultStudyMatchesSerialOracle recomputes every point the way the
// study used to: a fresh workload and a serial engine.Run per point,
// DeltaCPIPct against a serial fault-free run. The study's streamed
// units on the batched pool must reproduce each point exactly.
func TestFaultStudyMatchesSerialOracle(t *testing.T) {
	prof := faultStudyProfile()
	params := engine.DefaultParams()
	params.WarmupInstructions = 10_000
	params.SnapshotInterval = 15_000
	rates := []float64{1, 100, 1000}
	got, err := FaultStudy(prof, params, rates)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cleanCPI := engine.Run(workload.New(prof), cfg, params, ConfigBTB2).CPI()
	var want []FaultPoint
	for _, rate := range rates {
		for _, prot := range []fault.Protection{fault.Unprotected, fault.Parity} {
			p := params
			p.Fault = fault.ZEC12Rates(uint64(prof.Seed), rate, prot)
			res := engine.Run(workload.New(prof), cfg, p, ConfigBTB2)
			want = append(want, FaultPoint{
				RatePerM:    rate,
				Protection:  prot,
				CPI:         res.CPI(),
				BadRate:     100 * res.Outcomes.BadRate(),
				DeltaCPIPct: 100 * (res.CPI() - cleanCPI) / cleanCPI,
				Stats:       res.Fault,
			})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("study returned %d points, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d:\n  study:  %+v\n  oracle: %+v", i, got[i], want[i])
		}
	}
}

// TestFaultStudyIsolatesPanickingRuns: a run that panics is one failed
// unit, not a crashed caller. The invalid base fault config fails only
// the fault-free run (every point overrides Params.Fault), and the
// negative rate fails only its own two points.
func TestFaultStudyIsolatesPanickingRuns(t *testing.T) {
	params := fastStudyParams()
	params.Fault = fault.Config{BTB1PerM: -1}
	pts, err := FaultStudy(faultStudyProfile(), params, []float64{10, -1})
	if err == nil || !strings.Contains(err.Error(), "fault-free) panicked") {
		t.Fatalf("fault-free panic not reported: %v", err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for i, pt := range pts[:2] {
		if pt.CPI <= 0 || pt.DeltaCPIPct != 0 {
			t.Errorf("point %d: CPI %v, DeltaCPIPct %v; want a result with no delta", i, pt.CPI, pt.DeltaCPIPct)
		}
	}
	for i, pt := range pts[2:] {
		if pt != (FaultPoint{}) {
			t.Errorf("point %d: failed run left %+v, want zero value", 2+i, pt)
		}
	}
}

// TestFaultStudyHoldsNoTrace: the study streams every run from the
// shared compiled program, so what it allocates (engines, one program
// compile, batches) stays below the 32 B per instruction a recorded
// copy of the trace would take on its own.
func TestFaultStudyHoldsNoTrace(t *testing.T) {
	prof := faultStudyProfile()
	prof.Instructions = 250_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := FaultStudy(prof, fastStudyParams(), []float64{100}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	instBytes := uint64(unsafe.Sizeof(trace.Inst{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, instBytes*uint64(prof.Instructions); got >= limit {
		t.Errorf("study allocated %d bytes, want under %d (%d B x %d instructions)",
			got, limit, instBytes, prof.Instructions)
	}
}

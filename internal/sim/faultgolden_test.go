package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/workload"
)

// faultGoldenRecord pins one armed run of the fault study's shipping
// configuration: its timing, its outcomes, its aggregate fault counters
// and how many valid-entry reads each structure's injector observed.
// golden.json holds no armed run, and the other fault gates compare two
// paths of one commit; this file carries an armed run across commits,
// so a change that moves a strike by one read shows up here.
type faultGoldenRecord struct {
	Profile    string            `json:"profile"`
	RatePerM   float64           `json:"rate_per_m"`
	Protection string            `json:"protection"`
	Cycles     float64           `json:"cycles"`
	CPI        float64           `json:"cpi"`
	Outcomes   stats.Counts      `json:"outcomes"`
	Fault      fault.Stats       `json:"fault"`
	Reads      map[string]uint64 `json:"reads"`
}

// faultGoldenRuns runs two Table 4 profiles for 30k instructions at
// three base rates under both protections, as FaultStudy configures
// each point.
func faultGoldenRuns() []faultGoldenRecord {
	params := engine.DefaultParams()
	params.WarmupInstructions = 5_000
	var recs []faultGoldenRecord
	for _, name := range []string{"zos-daytrader-dbserv", "tpf-airline"} {
		prof, err := workload.ByName(name, 30_000)
		if err != nil {
			panic(err)
		}
		for _, rate := range []float64{10, 1000, 5000} {
			for _, prot := range []fault.Protection{fault.Unprotected, fault.Parity} {
				p := params
				p.Fault = fault.ZEC12Rates(uint64(prof.Seed), rate, prot)
				e := engine.New(core.DefaultConfig(), p)
				r := e.Run(workload.New(prof), ConfigBTB2)
				reads := map[string]uint64{}
				for _, j := range e.Hierarchy().FaultInjectors() {
					reads[j.Name()] = j.Reads()
				}
				recs = append(recs, faultGoldenRecord{
					Profile:    name,
					RatePerM:   rate,
					Protection: prot.String(),
					Cycles:     r.Cycles,
					CPI:        r.CPI(),
					Outcomes:   r.Outcomes,
					Fault:      r.Fault,
					Reads:      reads,
				})
			}
		}
	}
	return recs
}

// TestFaultStudyGolden pins armed runs across commits: a strike that
// moves by one read changes CPI, outcomes or fault counters. It shares
// -update-golden with TestGoldenRegression, so refresh golden.json with
// -run TestGoldenRegression. Regenerate this file only on its own
// (-run TestFaultStudyGolden -update-golden), in its own commit, for a
// change that is meant to move strikes.
func TestFaultStudyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run in -short mode")
	}
	path := filepath.Join("testdata", "faultstudy_golden.json")
	got := faultGoldenRuns()

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("fault golden file rewritten: %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fault golden file (run `go test ./internal/sim -run TestFaultStudyGolden -update-golden`): %v", err)
	}
	var want []faultGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fault golden has %d records, run produced %d", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("fault golden mismatch for %s at %g/M %s:\n  got  %+v\n  want %+v",
				got[i].Profile, got[i].RatePerM, got[i].Protection, got[i], want[i])
		}
	}
}

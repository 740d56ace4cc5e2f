package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files of the tests selected by -run from current behaviour")

// goldenRecord pins the externally-visible numbers of one deterministic
// run. Any unintentional behaviour change in the predictor, workload
// generator or timing model shows up as a golden diff.
type goldenRecord struct {
	Config       string       `json:"config"`
	Instructions int64        `json:"instructions"`
	Cycles       float64      `json:"cycles"`
	Outcomes     stats.Counts `json:"outcomes"`
	Transfers    int64        `json:"transfers"`
}

func goldenRuns() []engine.Result {
	prof := workload.Profile{
		Name: "golden", UniqueBranches: 12_000, TakenFraction: 0.66,
		Instructions: 200_000, HotFraction: 0.12, WindowFunctions: 48,
		CallsPerTransaction: 8, Seed: 20130223, // the paper's HPCA dates
	}
	params := engine.DefaultParams()
	params.WarmupInstructions = 40_000
	var out []engine.Result
	for _, name := range []string{ConfigNoBTB2, ConfigBTB2, ConfigLargeL1} {
		out = append(out, engine.Run(workload.New(prof), Table3()[name], params, name))
	}
	return out
}

func toRecords(rs []engine.Result) []goldenRecord {
	var recs []goldenRecord
	for _, r := range rs {
		recs = append(recs, goldenRecord{
			Config:       r.Config,
			Instructions: r.Instructions,
			Cycles:       r.Cycles,
			Outcomes:     r.Outcomes,
			Transfers:    r.Hier.TransferredHits,
		})
	}
	return recs
}

func TestGoldenRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run in -short mode")
	}
	path := filepath.Join("testdata", "golden.json")
	got := toRecords(goldenRuns())

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/sim -run TestGoldenRegression -update-golden`): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden mismatch for %s:\n  got  %+v\n  want %+v\n"+
				"If this change is intentional, refresh with `go test ./internal/sim -run TestGoldenRegression -update-golden`.",
				got[i].Config, got[i], want[i])
		}
	}
}

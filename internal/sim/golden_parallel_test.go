package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/workload"
)

// goldenUnits rebuilds the exact runs of golden_test.go as scheduler
// units — same profile, same params, same three configurations.
func goldenUnits() []Unit {
	prof := workload.Profile{
		Name: "golden", UniqueBranches: 12_000, TakenFraction: 0.66,
		Instructions: 200_000, HotFraction: 0.12, WindowFunctions: 48,
		CallsPerTransaction: 8, Seed: 20130223,
	}
	params := engine.DefaultParams()
	params.WarmupInstructions = 40_000
	var units []Unit
	for _, name := range []string{ConfigNoBTB2, ConfigBTB2, ConfigLargeL1} {
		units = append(units, ProfileUnit(prof, Table3()[name], params, name))
	}
	return units
}

// TestGoldenParallelPath regenerates the golden records through the
// work-stealing batched pipeline and demands the serialized output be
// byte-identical to the serial-path golden file on disk. The golden
// file is only ever written by the serial path (golden_test.go's
// -update-golden), so this pins the parallel pipeline to the serial
// oracle at the full golden instruction count — a second, independent
// leg of the differential gate.
func TestGoldenParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/sim -run TestGoldenRegression -update-golden`): %v", err)
	}

	res, rerr := RunUnits(context.Background(), 0, goldenUnits())
	if rerr != nil {
		t.Fatal(rerr)
	}
	got, err := json.MarshalIndent(toRecords(res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("parallel-path golden output is not byte-identical to the serial golden file:\n--- parallel\n%s\n--- golden\n%s", got, want)
	}
}

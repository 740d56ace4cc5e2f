package sim

import (
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/workload"
)

func TestBTB2RowGeometry(t *testing.T) {
	for _, w := range []int{32, 64, 128} {
		cfg := BTB2RowGeometry(w)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%dB: %v", w, err)
		}
		if cfg.Capacity() != 24576 {
			t.Errorf("%dB: capacity %d, want constant 24k", w, cfg.Capacity())
		}
		if cfg.LineBytes() != w {
			t.Errorf("%dB: line bytes %d", w, cfg.LineBytes())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("accepted unsupported width")
		}
	}()
	BTB2RowGeometry(256)
}

// TestSweepGeometriesValidate validates every table geometry the
// sweeps build, at every setting the experiments run: the Figure 5
// capacity sweep's BTB2s and the BTBP-size sweep's BTBPs (the row
// coverage sweep's are checked by TestBTB2RowGeometry).
func TestSweepGeometriesValidate(t *testing.T) {
	for _, rows := range []int{64, 512, 1024, 2048, 4096, 8192} {
		cfg := BTB2Geometry(rows)
		if err := cfg.Validate(); err != nil {
			t.Errorf("BTB2 %d rows: %v", rows, err)
		}
		if cfg.Rows != rows || cfg.LineBytes() != 32 {
			t.Errorf("BTB2 %d rows: got %d rows of %d bytes", rows, cfg.Rows, cfg.LineBytes())
		}
	}
	for _, ways := range []int{1, 2, 4, 6, 8} {
		cfg := BTBPGeometry(ways)
		if err := cfg.Validate(); err != nil {
			t.Errorf("BTBP %d ways: %v", ways, err)
		}
		if cfg.Capacity() != 128*ways {
			t.Errorf("BTBP %d ways: capacity %d", ways, cfg.Capacity())
		}
	}
}

func TestSweepRowCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	pts, err := SweepRowCoverage([]workload.Profile{quickProfile()}, quickParams(), []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if !pts[0].Shipping || pts[1].Shipping {
		t.Error("shipping flag wrong")
	}
	for _, p := range pts {
		if p.Improvement < -2 {
			t.Errorf("%s: improvement %.2f%% wildly negative", p.Label, p.Improvement)
		}
	}
}

func TestSweepMissMode(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	pts, err := SweepMissMode([]workload.Profile{quickProfile()}, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Label != "speculative" || !pts[0].Shipping {
		t.Error("first point must be the shipping speculative mode")
	}
	// Every mode must deliver some BTB2 benefit on a capacity-bound
	// workload (each reports real misses eventually).
	for _, p := range pts {
		if p.Improvement <= 0 {
			t.Errorf("%s: improvement %.2f%% not positive", p.Label, p.Improvement)
		}
	}
}

func TestMultiBlockStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study in -short mode")
	}
	pts, err := MultiBlockStudy([]workload.Profile{quickProfile()}, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// The chase must not be a regression beyond noise: it only spends
	// spare tracker slots on evidence-backed blocks.
	if pts[1].Improvement < pts[0].Improvement-0.5 {
		t.Errorf("multi-block chase regressed: %.2f%% vs %.2f%%",
			pts[1].Improvement, pts[0].Improvement)
	}
}

func TestPreloadStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study in -short mode")
	}
	pts, err := PreloadStudy(quickProfile(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Software preload must help a capacity-bound workload (hints name
	// exactly the branches about to execute), and combining it with the
	// hardware BTB2 must not be worse than software alone by more than
	// noise.
	if pts[0].Improvement <= 0 {
		t.Errorf("software preload gained %.2f%%, want positive", pts[0].Improvement)
	}
	if pts[2].Improvement < pts[0].Improvement-1.0 {
		t.Errorf("combined (%.2f%%) much worse than software alone (%.2f%%)",
			pts[2].Improvement, pts[0].Improvement)
	}
	if !pts[1].Shipping {
		t.Error("hardware point not flagged shipping")
	}
}

func TestSharingStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study in -short mode")
	}
	a := quickProfile()
	b := quickProfile()
	b.Name = "sim-test-b"
	b.Seed = 777
	r, err := SharingStudy(a, b, 10_000, core.OneLevelConfig(), quickParams(), "share")
	if err != nil {
		t.Fatal(err)
	}
	if r.SoloCPI <= 0 || r.MixedCPI <= 0 {
		t.Fatalf("CPIs not positive: %+v", r)
	}
	// Sharing one predictor between two working sets must not speed
	// things up: interference is non-negative (within noise).
	if r.InterferencePct < -0.5 {
		t.Errorf("negative interference %.2f%%", r.InterferencePct)
	}
}

func TestSweepBTBPSize(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	pts, err := SweepBTBPSize([]workload.Profile{quickProfile()}, quickParams(), []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || !pts[1].Shipping {
		t.Fatalf("points wrong: %+v", pts)
	}
}

func TestSweepInstallDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	pts, err := SweepInstallDelay([]workload.Profile{quickProfile()}, quickParams(), []uint64{8, 24, 96})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || !pts[1].Shipping {
		t.Fatalf("points wrong: %+v", pts)
	}
}

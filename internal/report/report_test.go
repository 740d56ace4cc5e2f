package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

func sampleResult(cycles float64) engine.Result {
	r := engine.Result{
		Trace:        "sample",
		Config:       "btb2",
		Instructions: 1000,
		Cycles:       cycles,
	}
	r.Outcomes.N[stats.GoodPredicted] = 150
	r.Outcomes.N[stats.GoodSurpriseNT] = 40
	r.Outcomes.N[stats.BadWrongDir] = 6
	r.Outcomes.N[stats.BadSurpriseCapacity] = 20
	return r
}

func sampleComparison() sim.Comparison {
	return sim.Comparison{
		Trace:     "sample",
		Base:      sampleResult(2000),
		BTB2:      sampleResult(1800),
		LargeBTB1: sampleResult(1700),
	}
}

func TestFigure2Rendering(t *testing.T) {
	var buf bytes.Buffer
	Figure2(&buf, []sim.Comparison{sampleComparison()})
	out := buf.String()
	for _, want := range []string{"Figure 2", "sample", "effectiveness", "AVERAGE"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// 10% and 15% improvements must appear.
	if !strings.Contains(out, "10.00%") || !strings.Contains(out, "15.00%") {
		t.Errorf("improvements not rendered:\n%s", out)
	}
}

func TestFigure3Rendering(t *testing.T) {
	var buf bytes.Buffer
	Figure3(&buf, []sim.HardwareResult{
		{Name: "WASDB+CBW2 (1 core)", Cores: 1, SimGain: 8.5, HardwareGain: 5.3},
	})
	out := buf.String()
	if !strings.Contains(out, "8.50%") || !strings.Contains(out, "5.30%") {
		t.Errorf("gains not rendered:\n%s", out)
	}
}

func TestFigure4Rendering(t *testing.T) {
	var buf bytes.Buffer
	Figure4(&buf, "sample", sampleResult(2000), sampleResult(1800))
	out := buf.String()
	for _, want := range []string{"Figure 4", "capacity", "compulsory", "latency", "no BTB2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestSweepRendering(t *testing.T) {
	var buf bytes.Buffer
	Sweep(&buf, "Test sweep", []sim.SweepPoint{
		{Label: "a", Improvement: 1.0},
		{Label: "b", Improvement: 2.0, Shipping: true},
	})
	out := buf.String()
	if !strings.Contains(out, "* b") {
		t.Errorf("shipping marker missing:\n%s", out)
	}
	// The larger value gets the longer bar.
	linesOut := strings.Split(strings.TrimSpace(out), "\n")
	if len(linesOut) != 3 {
		t.Fatalf("lines = %d", len(linesOut))
	}
	if strings.Count(linesOut[2], "#") <= strings.Count(linesOut[1], "#") {
		t.Error("bars not proportional")
	}
}

func TestTable4Rendering(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf, []Table4Row{{Name: "t", PaperUnique: 100, GenUnique: 90, PaperTaken: 70, GenTaken: 60}})
	if !strings.Contains(buf.String(), "90") {
		t.Error("row values missing")
	}
}

func TestMeasureTable4Row(t *testing.T) {
	ins := []trace.Inst{
		{Addr: 0x100, Length: 4, Kind: trace.CondDirect, Taken: true, Target: 0x200},
		{Addr: 0x200, Length: 4, Kind: trace.CondDirect, Taken: false, Target: 0x300},
	}
	row := MeasureTable4Row("x", 10, 5, trace.NewSliceSource("x", ins))
	if row.GenUnique != 2 || row.GenTaken != 1 {
		t.Errorf("row = %+v", row)
	}
}

func TestAblationsRendering(t *testing.T) {
	var buf bytes.Buffer
	Ablations(&buf, []sim.Ablation{{Name: "x", Improvement: 3.0}})
	if !strings.Contains(buf.String(), "x") {
		t.Error("ablation name missing")
	}
}

// TestResultRendering pins Result's full text for three real runs of
// 200,000 instructions (the default 100,000 warmup excluded): the
// two-level configuration, the one-level configuration (no BTB2 or
// tracker series, rendered as zeros) and a parity-protected faulted
// run. The expected files are zsim's stdout for the same runs.
func TestResultRendering(t *testing.T) {
	for _, tc := range []struct {
		name   string
		config string
		fault  fault.Config
	}{
		{"btb2", sim.ConfigBTB2, fault.Config{}},
		{"no-btb2", sim.ConfigNoBTB2, fault.Config{}},
		{"parity-faults", sim.ConfigBTB2, fault.ZEC12Rates(1, 200, fault.Parity)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof, err := workload.ByName("zos-daytrader-dbserv", 200_000)
			if err != nil {
				t.Fatal(err)
			}
			params := engine.DefaultParams()
			params.Fault = tc.fault
			res := engine.Run(workload.New(prof), sim.Table3()[tc.config], params, tc.config)
			var buf bytes.Buffer
			Result(&buf, res)
			want, err := os.ReadFile(filepath.Join("testdata", "result_"+tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("rendering differs:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestBarClamps(t *testing.T) {
	if bar(10, 5, 10) != strings.Repeat("#", 10) {
		t.Error("bar not clamped at width")
	}
	if bar(-1, 5, 10) != "" || bar(1, 0, 10) != "" {
		t.Error("degenerate bars not empty")
	}
}

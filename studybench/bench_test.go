package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"bulkpreload/internal/workload"
)

// tinyRecords keeps every study in these tests to well under a second.
const tinyRecords = 20_000

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		what string
		json []specMetric
		prog []metricSpec
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics},
		{"per_layer", spec.PerLayer, perLayerMetrics},
	} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", c.what, len(c.json), len(c.prog))
			continue
		}
		for i := range c.json {
			if c.json[i].Name != c.prog[i].Name || c.json[i].Unit != c.prog[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]", c.what, i,
					c.json[i].Name, c.json[i].Unit, c.prog[i].Name, c.prog[i].Unit)
			}
		}
	}
}

// TestTinyRuns runs every workload at a tiny length, untraced and
// traced: each must report every named metric with no failed unit, and
// the traced split must add up to workers × wall.
func TestTinyRuns(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := wl + "/untraced"
			if traced {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: wl, seed: 3, traced: traced, records: tinyRecords, workers: 2, dir: t.TempDir()}
				rep, err := runBenchmark(context.Background(), o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Fatalf("error rate: %d failed of %d attempted", rep.failed, rep.attempted)
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				var out strings.Builder
				if err := writeResult(&out, rep); err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || len(res.Metrics) != len(want) {
					t.Errorf("correct=%v with %d metrics, want true with %d", res.Correct, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if traced {
					checkSplit(t, wl, rep.split)
				}
			})
		}
	}
}

// checkSplit checks a traced run's split. On the unit studies idle is
// measured from the span gaps and wall from the scheduler's own clock,
// so the identity is a real cross-check; on fault_study idle is the
// capacity the process's CPU time left over, so idle >= 0 is.
func checkSplit(t *testing.T, wl string, sp split) {
	t.Helper()
	capacity := sp.capacity()
	if capacity <= 0 {
		t.Fatalf("split has no capacity: %s", sp)
	}
	if d := sp.busy() + sp.idle - capacity; d < -capacity/100 || d > capacity/100 {
		t.Errorf("split sums to %v, want workers x wall = %v within 1%%", sp.busy()+sp.idle, capacity)
	}
	if sp.build < 0 || sp.fill <= 0 || sp.engine <= 0 {
		t.Errorf("split has an empty or negative layer: %s", sp)
	}
	if sp.idle < 0 || sp.tailIdle < 0 || sp.tailIdle > sp.idle {
		t.Errorf("idle %v, tail idle %v: want 0 <= tail <= idle", sp.idle, sp.tailIdle)
	}
	m := map[string]float64{}
	sp.metrics(m)
	if u := m["sim.utilization"]; u <= 0 || u > 1 {
		t.Errorf("sim.utilization %v, want in (0, 1]", u)
	}
	if wl == wlFault {
		return // its pool keeps no busy counter
	}
	// The unit spans enclose the scheduler's own busy timing, closely.
	if d := sp.busy() - sp.schedBusy; d < 0 || float64(d) > 0.05*float64(sp.schedBusy) {
		t.Errorf("unit spans %v vs scheduler busy %v", sp.busy(), sp.schedBusy)
	}
}

func TestSeedOffsetsEveryProfile(t *testing.T) {
	base := workload.Table4Profiles(1000)
	got := profiles(1000, 7)
	for i := range base {
		if got[i].Seed != base[i].Seed+7 || got[i].Name != base[i].Name {
			t.Errorf("profile %d: %s seed %d, want %s seed %d", i, got[i].Name, got[i].Seed, base[i].Name, base[i].Seed+7)
		}
	}
	if s := currentShape(2, 1000, 7).String(); !strings.Contains(s, "seed=7") {
		t.Errorf("host stamp %q does not name the seed", s)
	}
}

// TestCheckCountsMismatches perturbs one result after a clean study:
// the check must count exactly that unit as failed.
func TestCheckCountsMismatches(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []string{wlSweep, wlFault} {
		s, err := newStudy(wl, 2, tinyRecords, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.setUp(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		s.run(ctx)
		if a, f := s.check(); a == 0 || f != 0 {
			t.Fatalf("%s: clean study: %d failed of %d", wl, f, a)
		}
		switch s := s.(type) {
		case *sweepStudy:
			s.last[3].Cycles++
		case *faultStudy:
			s.last[1].CPI++
		}
		if _, f := s.check(); f != 1 {
			t.Errorf("%s: perturbed study: %d failed, want 1", wl, f)
		}
	}
}

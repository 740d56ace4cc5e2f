package sim

import (
	"context"
	"testing"

	"bulkpreload/internal/obs/span"
)

// TestRunUnitsTracedHierarchy runs a traced study and checks the span
// tree has the documented shape: one study span rooting one worker span
// per pool worker, one unit span per unit parented to some worker, and
// engine phase + batch spans nested beneath the units.
func TestRunUnitsTracedHierarchy(t *testing.T) {
	units := schedTestUnits(6)
	const workers = 3
	tr := span.NewTrace()
	res, stats, err := RunUnitsTraced(context.Background(), workers, units, tr)
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	byID := make(map[span.ID]span.Event, len(evs))
	kinds := map[span.Kind][]span.Event{}
	for _, e := range evs {
		byID[e.ID] = e
		kinds[e.Kind] = append(kinds[e.Kind], e)
	}
	if len(kinds[span.KindStudy]) != 1 {
		t.Fatalf("got %d study spans, want 1", len(kinds[span.KindStudy]))
	}
	study := kinds[span.KindStudy][0]
	if study.Arg1 != int64(len(units)) || study.Arg2 != int64(workers) {
		t.Errorf("study args = (%d,%d), want (%d,%d)", study.Arg1, study.Arg2, len(units), workers)
	}
	if len(kinds[span.KindWorker]) != workers {
		t.Fatalf("got %d worker spans, want %d", len(kinds[span.KindWorker]), workers)
	}
	for _, w := range kinds[span.KindWorker] {
		if w.Parent != study.ID {
			t.Errorf("worker span %d not parented to study", w.Worker)
		}
	}
	if len(kinds[span.KindUnit]) != len(units) {
		t.Fatalf("got %d unit spans, want %d", len(kinds[span.KindUnit]), len(units))
	}
	var unitInsts int64
	for _, u := range kinds[span.KindUnit] {
		p, ok := byID[u.Parent]
		if !ok || p.Kind != span.KindWorker {
			t.Errorf("unit span %q not parented to a worker span", u.Name)
		}
		unitInsts += u.Arg1
	}
	var resInsts int64
	for i := range res {
		resInsts += res[i].Instructions
	}
	if unitInsts != resInsts {
		t.Errorf("unit span instructions %d != result instructions %d", unitInsts, resInsts)
	}
	if len(kinds[span.KindPhase]) == 0 || len(kinds[span.KindBatch]) == 0 {
		t.Fatalf("missing engine spans: %d phase, %d batch", len(kinds[span.KindPhase]), len(kinds[span.KindBatch]))
	}
	for _, ph := range kinds[span.KindPhase] {
		if p, ok := byID[ph.Parent]; !ok || p.Kind != span.KindUnit {
			t.Errorf("phase span %q not parented to a unit span", ph.Name)
		}
	}
	var bulk, slow int64
	for _, b := range kinds[span.KindBatch] {
		if p, ok := byID[b.Parent]; !ok || p.Kind != span.KindPhase {
			t.Errorf("batch span not parented to a phase span")
		}
		bulk += b.Arg1
		slow += b.Arg2
	}
	// Batch attribution must cover every simulated record and agree with
	// the scheduler's merged fast-path counters.
	if bulk+slow != resInsts {
		t.Errorf("batch attribution %d bulk + %d slow != %d instructions", bulk, slow, resInsts)
	}
	if got := stats.Metrics.Counter("sched_bulk_records_total"); got != bulk {
		t.Errorf("sched_bulk_records_total = %d, span sum = %d", got, bulk)
	}
	if got := stats.Metrics.Counter("sched_slow_records_total"); got != slow {
		t.Errorf("sched_slow_records_total = %d, span sum = %d", got, slow)
	}
	// Steal instants, if any occurred, must agree with the steal counter
	// (each instant records one steal of Arg1 units).
	var stolen int64
	for _, s := range kinds[span.KindSteal] {
		stolen += s.Arg1
	}
	if stolen != stats.Steals {
		t.Errorf("steal instants account for %d units, stats say %d", stolen, stats.Steals)
	}
}

// TestRunUnitsTracedTelemetry checks the new scheduler telemetry:
// busy-time feeding utilization, and queue-depth observations.
func TestRunUnitsTracedTelemetry(t *testing.T) {
	units := schedTestUnits(8)
	for _, workers := range []int{1, 2} {
		_, stats, err := RunUnitsTraced(context.Background(), workers, units, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.WallNanos <= 0 {
			t.Errorf("workers=%d: WallNanos = %d, want > 0", workers, stats.WallNanos)
		}
		busy := stats.Metrics.Counter("sched_busy_nanos_total")
		if busy <= 0 {
			t.Errorf("workers=%d: sched_busy_nanos_total = %d, want > 0", workers, busy)
		}
		u := float64(busy) / (float64(stats.WallNanos) * float64(stats.Workers))
		if u <= 0 || u > 1.5 { // small slack for clock granularity
			t.Errorf("workers=%d: utilization = %v, want in (0, 1]", workers, u)
		}
		qd, ok := stats.Metrics.Get("sched_queue_depth")
		if !ok {
			t.Fatalf("workers=%d: sched_queue_depth not registered", workers)
		}
		if qd.Count != int64(len(units)) {
			t.Errorf("workers=%d: queue depth observed %d times, want %d (one per pop)",
				workers, qd.Count, len(units))
		}
	}
}

// TestTracedMatchesUntraced proves tracing is observation only: traced
// and untraced runs of the same units produce identical results.
func TestTracedMatchesUntraced(t *testing.T) {
	units := schedTestUnits(5)
	plain, err := RunUnits(context.Background(), 2, units)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := RunUnitsTraced(context.Background(), 2, units, span.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if diffs := DiffResults(units[i].Label, plain[i], traced[i]); len(diffs) != 0 {
			t.Errorf("unit %d: traced run diverged: %v", i, diffs)
		}
	}
}

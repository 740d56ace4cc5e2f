package span

import (
	"testing"
)

// TestDisabledPathNoAllocs pins the zero-alloc contract of the nil
// recorder: a pipeline built with tracing off must not pay a single
// allocation for its span calls.
func TestDisabledPathNoAllocs(t *testing.T) {
	var tr *Trace // nil trace: tracing disabled end to end
	rec := tr.NewRecorder(1)
	if rec.Enabled() {
		t.Fatal("nil trace handed out an enabled recorder")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.Start(KindBatch, "batch", 0)
		rec.Instant(KindSteal, "steal", sp.ID(), 3, 2)
		sp.EndArgs(1024, 0)
		sp2 := rec.Start(KindRefill, "refill", sp.ID())
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %v times per run, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil trace accumulated events")
	}
	tr.Adopt(rec) // must not panic
}

// TestHierarchyRoundTrip records a miniature study tree through two
// recorders and checks identity, parentage, ordering, and args survive
// adoption.
func TestHierarchyRoundTrip(t *testing.T) {
	tr := NewTrace()
	sched := tr.NewRecorder(0)
	study := sched.Start(KindStudy, "study", 0)

	w1 := tr.NewRecorder(1)
	ws := w1.Start(KindWorker, "worker", study.ID())
	us := w1.Start(KindUnit, "oltp-1/base", ws.ID())
	bs := w1.Start(KindBatch, "batch", us.ID())
	bs.EndArgs(1000, 24)
	w1.Instant(KindSteal, "steal", ws.ID(), 2, 3)
	us.EndArgs(150_000, 0)
	ws.EndArgs(1, 0)

	study.EndArgs(1, 1)
	tr.Adopt(sched)
	tr.Adopt(w1)

	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	byName := map[string]Event{}
	seen := map[ID]bool{}
	for _, e := range evs {
		if e.ID == 0 {
			t.Errorf("event %q has zero ID", e.Name)
		}
		if seen[e.ID] {
			t.Errorf("duplicate span ID %d", e.ID)
		}
		seen[e.ID] = true
		if e.Dur < 0 {
			t.Errorf("event %q has negative duration %d", e.Name, e.Dur)
		}
		byName[e.Name] = e
	}
	if got := byName["batch"]; got.Parent != byName["oltp-1/base"].ID || got.Arg1 != 1000 || got.Arg2 != 24 {
		t.Errorf("batch span wrong: %+v", got)
	}
	if got := byName["oltp-1/base"]; got.Parent != byName["worker"].ID {
		t.Errorf("unit span not parented to worker: %+v", got)
	}
	if got := byName["worker"]; got.Parent != byName["study"].ID || got.Worker != 1 {
		t.Errorf("worker span wrong: %+v", got)
	}
	if got := byName["steal"]; !got.Instant || got.Arg1 != 2 || got.Arg2 != 3 {
		t.Errorf("steal instant wrong: %+v", got)
	}
	if byName["study"].Worker != 0 {
		t.Errorf("study span should be on worker 0: %+v", byName["study"])
	}
	// Events are sorted by start time; the study opened first.
	if evs[0].Start > evs[len(evs)-1].Start {
		t.Error("events not sorted by start time")
	}
}

// TestDeterministicIDs checks IDs depend only on (worker, sequence) so
// two identical schedules produce identical span identities.
func TestDeterministicIDs(t *testing.T) {
	mint := func() []ID {
		tr := NewTrace()
		var ids []ID
		for w := 0; w < 3; w++ {
			rec := tr.NewRecorder(w)
			for i := 0; i < 4; i++ {
				sp := rec.Start(KindUnit, "u", 0)
				ids = append(ids, sp.ID())
				sp.End()
			}
		}
		return ids
	}
	a, b := mint(), mint()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ID %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "span" {
			t.Errorf("kind %d has no name", k)
		}
		a1, _ := k.ArgNames()
		if a1 == "" {
			t.Errorf("kind %s has no first arg name", k)
		}
	}
}

// BenchmarkDisabledSpan is the disabled-path benchmark mirroring PR 1's
// disabled-metrics benchmarks: run with -benchmem, allocs/op must be 0.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Trace
	rec := tr.NewRecorder(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := rec.Start(KindBatch, "batch", 0)
		sp.EndArgs(int64(i), 0)
	}
}

// BenchmarkEnabledSpan measures the enabled-path cost per span for the
// PERFORMANCE.md numbers; it allocates only on buffer growth.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTrace()
	rec := tr.NewRecorder(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := rec.Start(KindBatch, "batch", 0)
		sp.EndArgs(int64(i), 0)
	}
}

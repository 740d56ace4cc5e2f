package ctb

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
	tb.RegisterMetrics(r, "ctb_")
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
	if New(DefaultEntries).n != 2048 {
		t.Error("DefaultEntries != 2048")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(100) did not panic")
		}
	}()
	New(100)
}

func TestMissTrainHit(t *testing.T) {
	c := New(256)
	var h history.History
	h.RecordPrediction(0x100, true)
	ret := zaddr.Addr(0x9000)
	if _, ok := c.Lookup(&h, ret); ok {
		t.Fatal("empty CTB hit")
	}
	c.Update(&h, ret, 0x1234)
	target, ok := c.Lookup(&h, ret)
	if !ok || target != 0x1234 {
		t.Fatalf("lookup = %#x ok=%v", uint64(target), ok)
	}
	st := counters(c)
	if st["ctb_installs_total"] != 1 || st["ctb_hits_total"] != 1 || st["ctb_lookups_total"] != 2 {
		t.Errorf("counters = %v", st)
	}
}

func TestPathCorrelatedTargets(t *testing.T) {
	// The defining CTB behaviour: one return site, two callers, two
	// targets — each path must retrieve its own target.
	c := New(1024)
	caller := func(site zaddr.Addr) *history.History {
		var h history.History
		h.RecordPrediction(site, true) // the call itself is a taken branch
		return &h
	}
	ret := zaddr.Addr(0x9000)
	c.Update(caller(0x1000), ret, 0x1008)
	c.Update(caller(0x2000), ret, 0x2008)
	if tgt, ok := c.Lookup(caller(0x1000), ret); !ok || tgt != 0x1008 {
		t.Errorf("caller 1: tgt=%#x ok=%v", uint64(tgt), ok)
	}
	if tgt, ok := c.Lookup(caller(0x2000), ret); !ok || tgt != 0x2008 {
		t.Errorf("caller 2: tgt=%#x ok=%v", uint64(tgt), ok)
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := New(256)
	var h history.History
	c.Update(&h, 0x9000, 0x1000)
	c.Update(&h, 0x9000, 0x2000)
	if tgt, _ := c.Lookup(&h, 0x9000); tgt != 0x2000 {
		t.Errorf("target = %#x, want latest", uint64(tgt))
	}
	if st := counters(c); st["ctb_updates_total"] != 1 || st["ctb_installs_total"] != 1 {
		t.Errorf("counters = %v", st)
	}
}

func TestReset(t *testing.T) {
	c := New(256)
	var h history.History
	c.Update(&h, 0x9000, 0x1000)
	c.Reset()
	if _, ok := c.Lookup(&h, 0x9000); ok {
		t.Error("Reset left entries")
	}
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	tb := New(256)
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "ctb_")
	obstest.RequireRegistered(t, r, &tb.met)
}

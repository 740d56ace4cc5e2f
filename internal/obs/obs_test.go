package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// A gauge is computed at snapshot time, so it reads the level then.
	r := NewRegistry()
	level := int64(7)
	r.GaugeFunc("level", "entries", "demo gauge", func() int64 { return level })
	level -= 3
	s := r.Snapshot(1)
	if v, ok := s.Get("level"); !ok || v.Type != TypeGauge || v.Value != 4 {
		t.Fatalf("gauge = %+v, want a gauge of 4", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.SetBounds(1, 4, 16)
	for _, v := range []int64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	if h.count != 5 || h.sum != 108 {
		t.Fatalf("count/sum = %d/%d, want 5/108", h.count, h.sum)
	}
	want := []int64{2, 1, 1, 1} // <=1: 0,1; <=4: 2; <=16: 5; overflow: 100
	for i, n := range want {
		if h.counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, h.counts[i], n, h.counts)
		}
	}
	h.Reset()
	if h.count != 0 || h.counts[0] != 0 {
		t.Fatal("Reset did not clear observations")
	}
}

func TestHistogramNoBounds(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(20)
	if h.count != 2 || h.sum != 30 {
		t.Fatalf("boundless histogram count/sum = %d/%d", h.count, h.sum)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	var h Histogram
	h.SetBounds(4, 1)
}

func buildRegistry(t *testing.T) (*Registry, *Counter, *int64, *Histogram) {
	t.Helper()
	r := NewRegistry()
	var c Counter
	var level int64
	var h Histogram
	h.SetBounds(10, 100)
	r.Counter("demo_events_total", "events", "demo counter", &c)
	r.GaugeFunc("demo_level", "entries", "demo gauge", func() int64 { return level })
	r.Histogram("demo_latency_cycles", "cycles", "demo histogram", &h)
	r.GaugeFunc("demo_computed", "entries", "computed gauge", func() int64 { return 42 })
	return r, &c, &level, &h
}

func TestRegistrySnapshot(t *testing.T) {
	r, c, g, h := buildRegistry(t)
	c.Add(3)
	*g = 9
	h.Observe(5)
	h.Observe(500)

	s := r.Snapshot(1)
	if s.Seq != 1 || len(s.Values) != len(r.metrics) {
		t.Fatalf("snapshot seq/len = %d/%d", s.Seq, len(s.Values))
	}
	if s.Counter("demo_events_total") != 3 {
		t.Fatalf("counter value = %d", s.Counter("demo_events_total"))
	}
	if s.Counter("demo_computed") != 42 {
		t.Fatalf("computed gauge = %d", s.Counter("demo_computed"))
	}
	v, ok := s.Get("demo_latency_cycles")
	if !ok || v.Count != 2 || v.Sum != 505 {
		t.Fatalf("histogram value = %+v", v)
	}
	if len(v.Buckets) != 3 || v.Buckets[0] != 1 || v.Buckets[2] != 1 {
		t.Fatalf("histogram buckets = %v", v.Buckets)
	}

	// Snapshot values are copies: mutating the source must not change s.
	h.Observe(1)
	if v2, _ := s.Get("demo_latency_cycles"); v2.Count != 2 {
		t.Fatal("snapshot shares storage with live histogram")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	var c Counter
	r.Counter("x", "", "", &c)
	r.Counter("x", "", "", &c)
}

func TestSnapshotMerge(t *testing.T) {
	r, c, g, h := buildRegistry(t)
	c.Add(2)
	*g = 5
	h.Observe(50)
	a := r.Snapshot(1)
	c.Add(3)
	h.Observe(5)
	b := r.Snapshot(2)

	a.Merge(b)
	if a.Counter("demo_events_total") != 7 { // 2 + 5
		t.Fatalf("merged counter = %d, want 7", a.Counter("demo_events_total"))
	}
	v, _ := a.Get("demo_latency_cycles")
	if v.Count != 3 || v.Buckets[0] != 1 || v.Buckets[1] != 2 {
		t.Fatalf("merged histogram = %+v", v)
	}

	// A metric only present in other is appended.
	extra := Snapshot{Values: []Value{{Name: "only_other", Type: TypeCounter, Value: 11}}}
	a.Merge(extra)
	if a.Counter("only_other") != 11 {
		t.Fatal("metric unique to other was not appended")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r, c, g, h := buildRegistry(t)
	c.Add(10)
	*g = 100
	h.Observe(5)
	first := r.Snapshot(1)
	c.Add(4)
	*g = 70
	h.Observe(7)
	second := r.Snapshot(2)

	d := second.Delta(&first)
	if d.Counter("demo_events_total") != 4 {
		t.Fatalf("delta counter = %d, want 4", d.Counter("demo_events_total"))
	}
	if d.Counter("demo_level") != 70 {
		t.Fatalf("delta gauge = %d, want current level 70", d.Counter("demo_level"))
	}
	v, _ := d.Get("demo_latency_cycles")
	if v.Count != 1 || v.Sum != 7 {
		t.Fatalf("delta histogram = %+v", v)
	}
	// Delta against nil is the snapshot itself.
	d0 := first.Delta(nil)
	if d0.Counter("demo_events_total") != 10 {
		t.Fatal("delta against nil changed values")
	}
}

func TestWritePrometheus(t *testing.T) {
	r, c, _, h := buildRegistry(t)
	c.Add(6)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	s := r.Snapshot(1)
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE demo_events_total counter",
		"demo_events_total 6",
		"# TYPE demo_latency_cycles histogram",
		`demo_latency_cycles_bucket{le="10"} 1`,
		`demo_latency_cycles_bucket{le="100"} 2`,
		`demo_latency_cycles_bucket{le="+Inf"} 3`,
		"demo_latency_cycles_sum 5055",
		"demo_latency_cycles_count 3",
		"# TYPE demo_computed gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestLivePublishAndServe(t *testing.T) {
	var l Live
	if l.Load() != nil {
		t.Fatal("Load before Publish should be nil")
	}
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 204 {
		t.Fatalf("pre-publish /metrics status = %d, want 204", rec.Code)
	}

	r, c, _, _ := buildRegistry(t)
	c.Add(9)
	l.Publish(r.Snapshot(3))
	if got := l.Load(); got == nil || got.Seq != 3 {
		t.Fatalf("Load = %+v", got)
	}

	rec = httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "demo_events_total 9") {
		t.Fatalf("/metrics = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if s.Counter("demo_events_total") != 9 {
		t.Fatalf("snapshot JSON counter = %d", s.Counter("demo_events_total"))
	}
	v, _ := s.Get("demo_events_total")
	if v.Kind != "counter" {
		t.Fatalf("published snapshot Kind = %q, want counter", v.Kind)
	}
}

func TestTypeString(t *testing.T) {
	if TypeCounter.String() != "counter" || TypeGauge.String() != "gauge" ||
		TypeHistogram.String() != "histogram" {
		t.Fatal("Type.String mismatch")
	}
	if !strings.HasPrefix(Type(9).String(), "Type(") {
		t.Fatal("unknown Type.String")
	}
}

package cache

import (
	"testing"
	"testing/quick"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/zaddr"
)

var tiny = Config{Name: "tiny", SizeBytes: 4 * 64, LineBytes: 64, Ways: 2} // 2 sets x 2 ways

// counters reads c's counter series through RegisterMetrics, named as
// a run's metrics name the L1I's.
func counters(c *Cache) map[string]int64 {
	r := obs.NewRegistry()
	c.RegisterMetrics(r, "l1i_")
	s := r.Snapshot(0)
	out := make(map[string]int64)
	for _, v := range s.Values {
		if v.Type == obs.TypeCounter {
			out[v.Name] = v.Value
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{L1IConfig, L2IConfig, tiny} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Ways: 2},
		{Name: "lineNp2", SizeBytes: 4 * 60, LineBytes: 60, Ways: 2},
		{Name: "indivisible", SizeBytes: 1000, LineBytes: 64, Ways: 2},
		{Name: "setsNp2", SizeBytes: 3 * 64 * 2, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", cfg.Name)
		}
	}
}

func TestPaperGeometries(t *testing.T) {
	// Table 5: L1 I-cache 64KB 4-way; L2 instruction 1M 8-way.
	if L1IConfig.Sets() != 64 {
		t.Errorf("L1I sets = %d, want 64", L1IConfig.Sets())
	}
	if L2IConfig.Sets() != 512 {
		t.Errorf("L2I sets = %d, want 512", L2IConfig.Sets())
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c := New(tiny)
	hit, pf := c.Access(0x1000)
	if hit || pf {
		t.Fatal("cold access hit")
	}
	hit, pf = c.Access(0x1004) // same 64B line
	if !hit || pf {
		t.Fatalf("warm access: hit=%v pf=%v", hit, pf)
	}
	st := counters(c)
	if st["l1i_accesses_total"] != 2 || st["l1i_misses_total"] != 1 {
		t.Errorf("counters = %v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(tiny)          // 2 sets x 2 ways, 64B lines: set = (addr/64)%2
	a := zaddr.Addr(0x0000) // set 0
	b := a + 128            // set 0, different tag
	d := a + 256            // set 0, third tag
	c.Access(a)
	c.Access(b)
	c.Access(a) // a MRU, b LRU
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Error("a evicted wrongly")
	}
	if c.Probe(b) {
		t.Error("b survived; LRU broken")
	}
	if !c.Probe(d) {
		t.Error("d missing after fill")
	}
}

func TestProbeNoStateChange(t *testing.T) {
	c := New(tiny)
	if c.Probe(0x1000) {
		t.Fatal("probe hit empty cache")
	}
	if st := counters(c); st["l1i_accesses_total"] != 0 || st["l1i_misses_total"] != 0 {
		t.Error("Probe counted as access")
	}
	if c.CountValid() != 0 {
		t.Error("Probe filled a line")
	}
}

func TestPrefetchHiddenLatency(t *testing.T) {
	c := New(tiny)
	c.Prefetch(0x2000)
	hit, pf := c.Access(0x2000)
	if !hit || !pf {
		t.Fatalf("demand after prefetch: hit=%v pf=%v", hit, pf)
	}
	// Second demand touch is an ordinary hit.
	hit, pf = c.Access(0x2000)
	if !hit || pf {
		t.Fatalf("second touch: hit=%v pf=%v", hit, pf)
	}
	st := counters(c)
	if st["l1i_prefetches_total"] != 1 || st["l1i_prefetched_hits_total"] != 1 || st["l1i_misses_total"] != 0 {
		t.Errorf("counters = %v", st)
	}
}

func TestPrefetchResidentIsNoop(t *testing.T) {
	c := New(tiny)
	c.Access(0x2000)
	c.Prefetch(0x2000)
	if counters(c)["l1i_prefetches_total"] != 0 {
		t.Error("prefetch of resident line counted")
	}
	// And it must not mark the line prefetched.
	if _, pf := c.Access(0x2000); pf {
		t.Error("resident line became 'prefetched'")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(tiny)
		for _, a := range addrs {
			c.Access(zaddr.Addr(a))
		}
		return c.CountValid() <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetFitsNoMisses(t *testing.T) {
	// A working set equal to capacity must have only compulsory misses.
	c := New(L1IConfig)
	lines := L1IConfig.SizeBytes / L1IConfig.LineBytes
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(zaddr.Addr(i * L1IConfig.LineBytes))
		}
	}
	if n := counters(c)["l1i_misses_total"]; n != int64(lines) {
		t.Errorf("misses = %d, want %d compulsory only", n, lines)
	}
}

func TestWorkingSetThrashes(t *testing.T) {
	// A working set of 2x capacity walked cyclically with LRU misses on
	// every access after warmup.
	c := New(tiny)
	var misses int64
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 8; i++ { // 8 lines, capacity 4, all in 2 sets
			hit, _ := c.Access(zaddr.Addr(i * 64))
			if !hit {
				misses++
			}
		}
	}
	if misses != 32 {
		t.Errorf("misses = %d, want 32 (every access under cyclic LRU thrash)", misses)
	}
}

func TestReset(t *testing.T) {
	c := New(tiny)
	c.Access(0x1000)
	c.Reset()
	if c.CountValid() != 0 {
		t.Error("Reset left lines")
	}
	for name, v := range counters(c) {
		if v != 0 {
			t.Errorf("Reset left %s = %d", name, v)
		}
	}
	if c.Probe(0x1000) {
		t.Error("line survived Reset")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted bad config")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 100, LineBytes: 64, Ways: 2})
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	c := New(tiny)
	r := obs.NewRegistry()
	c.RegisterMetrics(r, "l1i_")
	obstest.RequireRegistered(t, r, &c.met)
}

package tracker

import (
	"testing"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/steering"
	"bulkpreload/internal/zaddr"
)

// counters reads tr's counter series through RegisterMetrics, named as
// a run's metrics name them.
func counters(tr *Trackers) map[string]int64 {
	r := obs.NewRegistry()
	tr.RegisterMetrics(r, "tracker_")
	s := r.Snapshot(0)
	out := make(map[string]int64)
	for _, v := range s.Values {
		if v.Type == obs.TypeCounter {
			out[v.Name] = v.Value
		}
	}
	return out
}

// seqOrder is a trivial Orderer returning sectors 0..31 in order.
type seqOrder struct{}

func (seqOrder) Order(zaddr.Addr) []int {
	out := make([]int, zaddr.SectorsPerBlock)
	for i := range out {
		out[i] = i
	}
	return out
}

func newT(t *testing.T, cfg Config) *Trackers {
	t.Helper()
	return New(cfg, seqOrder{})
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Count: 0, PartialRows: 4},
		{Count: 3, PartialRows: 0},
		{Count: 3, PartialRows: 999},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPaperTiming(t *testing.T) {
	// "a full 4 KB bulk transfer takes 128 + 8 = 136 cycles" starting 7
	// cycles after the miss detect.
	tr := newT(t, DefaultConfig)
	addr := zaddr.Addr(0x10000)
	tr.OnBTB1Miss(addr, 100)
	tr.OnICacheMiss(addr, 100) // fully active immediately
	reads := tr.Drain(100 + 7 + 136)
	if len(reads) != zaddr.RowsPerBlock {
		t.Fatalf("drained %d rows, want 128", len(reads))
	}
	// First row data arrives at start (107) + pipeline depth (8) = 115.
	if reads[0].Ready != 115 {
		t.Errorf("first row ready at %d, want 115", reads[0].Ready)
	}
	// Last row: 107 + 8 + 127 = 242 (within 107+136 = 243 cycle window).
	if last := reads[len(reads)-1].Ready; last != 242 {
		t.Errorf("last row ready at %d, want 242", last)
	}
}

func TestPartialSearchOnly4Rows(t *testing.T) {
	tr := newT(t, DefaultConfig)
	// Miss in sector 3 of a block: partial search covers the sector's 4
	// rows (128 bytes).
	addr := zaddr.Addr(0x20000 + 3*zaddr.SectorBytes + 40)
	tr.OnBTB1Miss(addr, 0)
	reads := tr.Drain(10000)
	if len(reads) != 4 {
		t.Fatalf("partial search read %d rows, want 4", len(reads))
	}
	wantBase := zaddr.Addr(0x20000 + 3*zaddr.SectorBytes)
	for i, r := range reads {
		if r.Line != wantBase+zaddr.Addr(i*zaddr.RowBytes) {
			t.Errorf("row %d = %#x, want %#x", i, uint64(r.Line), uint64(wantBase)+uint64(i*zaddr.RowBytes))
		}
	}
	st := counters(tr)
	if st["tracker_partial_searches_total"] != 1 || st["tracker_full_searches_total"] != 0 {
		t.Errorf("counters = %v", st)
	}
}

func TestPartialInvalidatedWithoutICacheMiss(t *testing.T) {
	tr := newT(t, DefaultConfig)
	addr := zaddr.Addr(0x30000)
	tr.OnBTB1Miss(addr, 0)
	tr.Drain(10000) // partial completes, no I-cache miss => invalidated
	if n := counters(tr)["tracker_invalidated_total"]; n != 1 {
		t.Errorf("tracker_invalidated_total = %d, want 1", n)
	}
	// The block is no longer tracked: a new miss relaunches a search.
	tr.OnBTB1Miss(addr, 20000)
	if got := tr.PendingReads(); got != 4 {
		t.Errorf("re-miss scheduled %d reads, want 4", got)
	}
}

func TestUpgradeToFullOnICacheMiss(t *testing.T) {
	tr := newT(t, DefaultConfig)
	addr := zaddr.Addr(0x40000)
	tr.OnBTB1Miss(addr, 0)
	// I-cache miss arrives while the partial search is in flight.
	tr.OnICacheMiss(addr+64, 5)
	reads := tr.Drain(100000)
	if len(reads) != zaddr.RowsPerBlock {
		t.Fatalf("after upgrade drained %d rows, want 128 (no duplicates)", len(reads))
	}
	seen := map[zaddr.Addr]bool{}
	for _, r := range reads {
		if seen[r.Line] {
			t.Fatalf("row %#x read twice", uint64(r.Line))
		}
		seen[r.Line] = true
	}
	st := counters(tr)
	if st["tracker_upgrades_total"] != 1 || st["tracker_partial_searches_total"] != 1 ||
		st["tracker_full_searches_total"] != 1 {
		t.Errorf("counters = %v", st)
	}
}

func TestICacheOnlyNoSearch(t *testing.T) {
	tr := newT(t, DefaultConfig)
	tr.OnICacheMiss(0x50000, 0)
	if tr.PendingReads() != 0 {
		t.Fatal("I-cache-only tracker launched a search")
	}
	// A later BTB1 miss for the same block makes it fully active.
	tr.OnBTB1Miss(0x50040, 10)
	if tr.PendingReads() != zaddr.RowsPerBlock {
		t.Fatalf("fully active tracker scheduled %d rows, want 128", tr.PendingReads())
	}
	if st := counters(tr); st["tracker_full_searches_total"] != 1 || st["tracker_partial_searches_total"] != 0 {
		t.Errorf("counters = %v", st)
	}
}

func TestNoFilterAblation(t *testing.T) {
	cfg := DefaultConfig
	cfg.FilterByICache = false
	tr := newT(t, cfg)
	tr.OnBTB1Miss(0x60000, 0)
	if tr.PendingReads() != zaddr.RowsPerBlock {
		t.Fatalf("unfiltered miss scheduled %d rows, want full block", tr.PendingReads())
	}
}

func TestDuplicateMissIgnoredWhileTracked(t *testing.T) {
	tr := newT(t, DefaultConfig)
	tr.OnBTB1Miss(0x70000, 0)
	tr.OnBTB1Miss(0x70080, 1) // same block
	if tr.PendingReads() != 4 {
		t.Fatalf("duplicate miss scheduled extra reads: %d", tr.PendingReads())
	}
	tr.OnICacheMiss(0x70000, 2)
	tr.OnICacheMiss(0x70010, 3) // duplicate icache: ignored
	if n := counters(tr)["tracker_upgrades_total"]; n != 1 {
		t.Errorf("tracker_upgrades_total = %d, want 1", n)
	}
}

func TestTrackerExhaustionDrops(t *testing.T) {
	cfg := DefaultConfig
	cfg.Count = 2
	tr := newT(t, cfg)
	tr.OnBTB1Miss(0x10000, 0)
	tr.OnICacheMiss(0x10000, 0)
	tr.OnBTB1Miss(0x20000, 1)
	tr.OnICacheMiss(0x20000, 1)
	// Both trackers have long full searches in flight; a third block's
	// miss must be dropped.
	tr.OnBTB1Miss(0x30000, 2)
	if n := counters(tr)["tracker_dropped_total"]; n != 1 {
		t.Errorf("tracker_dropped_total = %d, want 1", n)
	}
}

func TestICacheOnlyTrackerIsReplaceable(t *testing.T) {
	cfg := DefaultConfig
	cfg.Count = 1
	tr := newT(t, cfg)
	tr.OnICacheMiss(0x10000, 0)
	// A BTB1 miss for another block replaces the icache-only tracker.
	tr.OnBTB1Miss(0x20000, 1)
	if tr.PendingReads() != 4 {
		t.Fatalf("replacement failed: %d reads", tr.PendingReads())
	}
	if n := counters(tr)["tracker_dropped_total"]; n != 0 {
		t.Errorf("tracker_dropped_total = %d, want 0", n)
	}
}

func TestPortSerialization(t *testing.T) {
	// Two fully-active trackers: the second search's rows must queue
	// behind the first (one row per cycle on a single port).
	tr := newT(t, DefaultConfig)
	tr.OnBTB1Miss(0x10000, 0)
	tr.OnICacheMiss(0x10000, 0)
	tr.OnBTB1Miss(0x20000, 0)
	tr.OnICacheMiss(0x20000, 0)
	reads := tr.Drain(1 << 20)
	if len(reads) != 2*zaddr.RowsPerBlock {
		t.Fatalf("drained %d", len(reads))
	}
	// Ready cycles strictly increase by 1 across the whole sequence.
	for i := 1; i < len(reads); i++ {
		if reads[i].Ready != reads[i-1].Ready+1 {
			t.Fatalf("read %d ready %d, prev %d (port not serialized)", i, reads[i].Ready, reads[i-1].Ready)
		}
	}
	// Block 2's first row comes after all of block 1's rows.
	if zaddr.Block(reads[127].Line) != zaddr.Block(0x10000) || zaddr.Block(reads[128].Line) != zaddr.Block(0x20000) {
		t.Error("second tracker's rows interleaved with first")
	}
}

func TestDrainPartialThenRest(t *testing.T) {
	tr := newT(t, DefaultConfig)
	tr.OnBTB1Miss(0x10000, 0)
	tr.OnICacheMiss(0x10000, 0)
	early := tr.Drain(7 + 8 + 9) // first 10 rows ready by cycle 24
	if len(early) != 10 {
		t.Fatalf("early drain = %d rows, want 10", len(early))
	}
	rest := tr.Drain(1 << 20)
	if len(early)+len(rest) != zaddr.RowsPerBlock {
		t.Fatalf("total = %d", len(early)+len(rest))
	}
}

func TestSteeredOrderUsed(t *testing.T) {
	// With a real steering table trained to prioritize sector 9, the
	// first full-search rows must belong to sector 9.
	st := steering.NewDefault()
	base := zaddr.Addr(0x80000)
	st.ObserveComplete(base + 9*zaddr.SectorBytes)
	st.ObserveComplete(zaddr.Addr(0x200000)) // flush
	tr := New(DefaultConfig, st)
	tr.OnBTB1Miss(base+9*zaddr.SectorBytes+16, 0)
	tr.OnICacheMiss(base+9*zaddr.SectorBytes, 0)
	reads := tr.Drain(1 << 20)
	if len(reads) != zaddr.RowsPerBlock {
		t.Fatalf("drained %d", len(reads))
	}
	if zaddr.Sector(reads[0].Line) != 9 {
		t.Errorf("first row in sector %d, want demand sector 9", zaddr.Sector(reads[0].Line))
	}
}

func TestActiveSearchesAndReset(t *testing.T) {
	tr := newT(t, DefaultConfig)
	tr.OnBTB1Miss(0x10000, 0)
	if tr.ActiveSearches(0) != 1 {
		t.Errorf("ActiveSearches = %d", tr.ActiveSearches(0))
	}
	tr.Reset()
	if tr.PendingReads() != 0 || tr.ActiveSearches(0) != 0 {
		t.Error("Reset incomplete")
	}
	for name, v := range counters(tr) {
		if v != 0 {
			t.Errorf("Reset left %s = %d", name, v)
		}
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted bad config")
		}
	}()
	New(Config{}, seqOrder{})
}

func TestNilOrdererPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted nil orderer")
		}
	}()
	New(DefaultConfig, nil)
}

func TestWideRowGeometry(t *testing.T) {
	// 64-byte BTB2 rows: a full block is 64 reads at 64-byte strides, so
	// the whole transfer finishes in roughly half the shipping time.
	cfg := DefaultConfig
	cfg.RowBytes = 64
	cfg.PartialRows = 2 // keep the 128-byte partial coverage
	tr := New(cfg, seqOrder{})
	tr.OnBTB1Miss(0x10000, 0)
	tr.OnICacheMiss(0x10000, 0)
	reads := tr.Drain(1 << 20)
	if len(reads) != 64 {
		t.Fatalf("64B-row full search read %d rows, want 64", len(reads))
	}
	for i, r := range reads {
		if uint64(r.Line)%64 != 0 {
			t.Fatalf("read %d line %#x not 64B aligned", i, uint64(r.Line))
		}
	}
	// Completion: start 7 + depth 8 + 64 rows => last ready at 7+8+63.
	if last := reads[len(reads)-1].Ready; last != 7+8+63 {
		t.Errorf("last ready %d, want %d", last, 7+8+63)
	}
}

func TestRowBytesValidation(t *testing.T) {
	cfg := DefaultConfig
	cfg.RowBytes = 48
	if err := cfg.Validate(); err == nil {
		t.Error("48-byte rows accepted")
	}
	cfg.RowBytes = 128
	cfg.PartialRows = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("128-byte rows rejected: %v", err)
	}
	if cfg.RowsPerBlock() != 32 {
		t.Errorf("rows per block = %d, want 32", cfg.RowsPerBlock())
	}
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	tr := newT(t, DefaultConfig)
	r := obs.NewRegistry()
	tr.RegisterMetrics(r, "tracker_")
	obstest.RequireRegistered(t, r, &tr.met)
}

package btb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/zaddr"
)

// small test geometry: 16 rows x 2 ways, same 32-byte lines as hardware.
var testCfg = Config{Name: "test", Rows: 16, Ways: 2, IndexHi: 55, IndexLo: 58}

// counters reads tb's counter series through RegisterMetrics, named as
// a run's metrics name the BTB1's.
func counters(tb *Table) map[string]int64 {
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "btb1_")
	s := r.Snapshot(0)
	out := make(map[string]int64)
	for _, v := range s.Values {
		if v.Type == obs.TypeCounter {
			out[v.Name] = v.Value
		}
	}
	return out
}

func entry(a zaddr.Addr) Entry {
	return Entry{Addr: a, Target: a + 0x100, Dir: bht.WeakT, Length: 4}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{BTB1Config, BTBPConfig, BTB2Config, LargeBTB1Config, testCfg} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := []Config{
		{Name: "rows0", Rows: 0, Ways: 2, IndexHi: 55, IndexLo: 58},
		{Name: "rowsNp2", Rows: 3, Ways: 2, IndexHi: 55, IndexLo: 58},
		{Name: "ways0", Rows: 16, Ways: 0, IndexHi: 55, IndexLo: 58},
		{Name: "inverted", Rows: 16, Ways: 2, IndexHi: 58, IndexLo: 55},
		{Name: "rowMismatch", Rows: 32, Ways: 2, IndexHi: 55, IndexLo: 58},
		{Name: "lineSize", Rows: 16, Ways: 2, IndexHi: 49, IndexLo: 52},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", cfg.Name)
		}
	}
}

func TestPaperCapacities(t *testing.T) {
	// Section 3.1: BTB1 4k branches, BTBP 768 branches, BTB2 24k branches.
	if BTB1Config.Capacity() != 4096 {
		t.Errorf("BTB1 capacity = %d", BTB1Config.Capacity())
	}
	if BTBPConfig.Capacity() != 768 {
		t.Errorf("BTBP capacity = %d", BTBPConfig.Capacity())
	}
	if BTB2Config.Capacity() != 24576 {
		t.Errorf("BTB2 capacity = %d", BTB2Config.Capacity())
	}
	if LargeBTB1Config.Capacity() != 24576 {
		t.Errorf("large BTB1 capacity = %d", LargeBTB1Config.Capacity())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid config")
		}
	}()
	New(Config{Name: "bad", Rows: 3, Ways: 1, IndexHi: 55, IndexLo: 58})
}

func TestInsertFindUpdate(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x1004)
	if _, ok := tb.Find(a); ok {
		t.Fatal("empty table claims a hit")
	}
	if v, ev := tb.Insert(entry(a)); ev {
		t.Fatalf("insert into empty table evicted %+v", v)
	}
	got, ok := tb.Find(a)
	if !ok || got.Addr != a || got.Target != a+0x100 {
		t.Fatalf("Find after insert: %+v ok=%v", got, ok)
	}
	if !tb.Contains(a) {
		t.Error("Contains = false")
	}
	// Update in place.
	e := got
	e.Dir = bht.StrongT
	if !tb.Update(e) {
		t.Fatal("Update missed existing entry")
	}
	got, _ = tb.Find(a)
	if got.Dir != bht.StrongT {
		t.Error("Update did not stick")
	}
	if tb.Update(Entry{Addr: 0x9999998}) {
		t.Error("Update claimed success for absent branch")
	}
	if tb.CountValid() != 1 {
		t.Errorf("CountValid = %d", tb.CountValid())
	}
}

func TestTwoBranchesSameLine(t *testing.T) {
	// Two branches in the same 32-byte line occupy distinct ways and are
	// distinguished by offset.
	tb := New(testCfg)
	a := zaddr.Addr(0x2000)
	b := zaddr.Addr(0x2010)
	tb.Insert(entry(a))
	tb.Insert(entry(b))
	if !tb.Contains(a) || !tb.Contains(b) {
		t.Fatal("lost one of two same-line branches")
	}
	hits := tb.LookupLine(0x2000, nil)
	if len(hits) != 2 {
		t.Fatalf("LookupLine found %d entries, want 2", len(hits))
	}
}

func TestLookupLineTagMismatch(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x2000)
	tb.Insert(entry(a))
	// Same row index (16 rows x 32B = 512B aliasing stride), full tags:
	// must not hit.
	if hits := tb.LookupLine(0x2000+512, nil); len(hits) != 0 {
		t.Fatalf("full-tag lookup aliased: %v", hits)
	}
	st := counters(tb)
	if st["btb1_lookups_total"] != 1 || st["btb1_line_hits_total"] != 0 {
		t.Errorf("counters = %v", st)
	}
}

func TestPartialTagAliasing(t *testing.T) {
	cfg := testCfg
	cfg.TagBits = 4 // compare only 4 bits above the index
	tb := New(cfg)
	a := zaddr.Addr(0x2000)
	tb.Insert(entry(a))
	// Stride that flips only bits above the 4-bit tag: rows cover bits
	// 55:58, tag bits 51:54, so adding 1<<13 (bit 50) aliases.
	alias := a + (1 << 13)
	if !tb.Contains(alias) {
		t.Error("partial tags should alias across high bits")
	}
	if hits := tb.LookupLine(alias, nil); len(hits) != 1 {
		t.Errorf("aliased lookup found %d hits", len(hits))
	}
}

func TestLRUReplacement(t *testing.T) {
	tb := New(testCfg) // 2 ways
	// Three distinct lines mapping to row 0: stride = rows*32 = 512.
	a := zaddr.Addr(0x0000)
	b := a + 512
	c := a + 1024
	tb.Insert(entry(a))
	tb.Insert(entry(b))
	// a is LRU; inserting c must evict a.
	v, ev := tb.Insert(entry(c))
	if !ev || v.Addr != a {
		t.Fatalf("victim = %+v ev=%v, want a", v, ev)
	}
	if tb.Contains(a) || !tb.Contains(b) || !tb.Contains(c) {
		t.Error("wrong survivor set after eviction")
	}
}

func TestTouchChangesVictim(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x0000)
	b := a + 512
	c := a + 1024
	tb.Insert(entry(a))
	tb.Insert(entry(b))
	if !tb.TouchSlot(Slot{Addr: a, Way: -1}) { // a becomes MRU; b is now LRU
		t.Fatal("Touch missed")
	}
	v, ev := tb.Insert(entry(c))
	if !ev || v.Addr != b {
		t.Fatalf("victim = %+v, want b", v)
	}
	if tb.TouchSlot(Slot{Addr: 0x777777, Way: -1}) {
		t.Error("Touch hit an absent branch")
	}
}

func TestDemoteMakesEntryNextVictim(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x0000)
	b := a + 512
	c := a + 1024
	tb.Insert(entry(a))
	tb.Insert(entry(b))                         // order: b MRU, a LRU
	if !tb.DemoteSlot(Slot{Addr: b, Way: -1}) { // b forced LRU — the BTB2 semi-exclusive hit rule
		t.Fatal("Demote missed")
	}
	v, ev := tb.Insert(entry(c))
	if !ev || v.Addr != b {
		t.Fatalf("victim = %+v, want demoted b", v)
	}
	if tb.DemoteSlot(Slot{Addr: 0x777777, Way: -1}) {
		t.Error("Demote hit an absent branch")
	}
}

func TestInvalidate(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x3000)
	tb.Insert(entry(a))
	if !tb.Invalidate(a) {
		t.Fatal("Invalidate missed")
	}
	if tb.Contains(a) || tb.CountValid() != 0 {
		t.Error("entry survived Invalidate")
	}
	if tb.Invalidate(a) {
		t.Error("double Invalidate reported success")
	}
}

func TestInsertExistingPromotes(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x0000)
	b := a + 512
	tb.Insert(entry(a))
	tb.Insert(entry(b)) // b MRU, a LRU
	// Re-inserting a must not evict and must promote a to MRU.
	if _, ev := tb.Insert(entry(a)); ev {
		t.Fatal("re-insert evicted")
	}
	c := a + 1024
	v, _ := tb.Insert(entry(c))
	if v.Addr != b {
		t.Fatalf("victim = %+v, want b after a was promoted", v)
	}
}

func TestLookupLineFlagsMRU(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x0000)
	b := a + 512
	tb.Insert(entry(a))
	tb.Insert(entry(b))
	hits := tb.LookupLine(b, nil)
	if len(hits) != 1 || !hits[0].MRU {
		t.Errorf("most recent insert not flagged MRU: %+v", hits)
	}
	if hits := tb.LookupLine(a, nil); len(hits) != 1 || hits[0].MRU {
		t.Errorf("older entry of the row flagged MRU: %+v", hits)
	}
}

func TestReset(t *testing.T) {
	tb := New(testCfg)
	for i := 0; i < 100; i++ {
		tb.Insert(entry(zaddr.Addr(i * 64)))
	}
	tb.Reset()
	if tb.CountValid() != 0 {
		t.Error("Reset left valid entries")
	}
	for name, v := range counters(tb) {
		if v != 0 {
			t.Errorf("Reset left %s = %d", name, v)
		}
	}
	if err := tb.CheckLRUInvariant(); err != nil {
		t.Error(err)
	}
}

func TestStatsCounting(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x1000)
	tb.Insert(entry(a))        // install
	tb.Insert(entry(a))        // update (in-place)
	tb.Insert(entry(a + 512))  // install
	tb.Insert(entry(a + 1024)) // install + evict
	tb.LookupLine(a+1024, nil) // hit or miss depending on survivor
	want := map[string]int64{
		"btb1_lookups_total":  1,
		"btb1_installs_total": 3,
		"btb1_updates_total":  1,
		"btb1_evicts_total":   1,
	}
	st := counters(tb)
	for name, w := range want {
		if st[name] != w {
			t.Errorf("%s = %d, want %d", name, st[name], w)
		}
	}
}

// TestLRUPermutationProperty drives a random operation sequence and
// checks that every row's recency order stays a permutation of the ways
// and that capacity is never exceeded.
func TestLRUPermutationProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		tb := New(testCfg)
		ops := int(opsRaw)%500 + 1
		for i := 0; i < ops; i++ {
			a := zaddr.Addr(r.Intn(64) * 128) // many aliasing lines
			switch r.Intn(5) {
			case 0, 1:
				tb.Insert(entry(a))
			case 2:
				tb.InsertSlot(SlotOf(entry(a)))
			case 3:
				tb.TouchSlot(Slot{Addr: a, Way: -1})
			case 4:
				tb.DemoteSlot(Slot{Addr: a, Way: -1})
			}
			if err := tb.CheckLRUInvariant(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
		}
		return tb.CountValid() <= testCfg.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNoDuplicateEntries: inserting the same branch repeatedly through
// any path must never create two entries for one branch address.
func TestNoDuplicateEntries(t *testing.T) {
	tb := New(testCfg)
	a := zaddr.Addr(0x5008)
	tb.Insert(entry(a))
	tb.InsertSlot(SlotOf(entry(a)))
	tb.Insert(entry(a))
	hits := tb.LookupLine(a, nil)
	if len(hits) != 1 {
		t.Fatalf("%d entries for one branch", len(hits))
	}
}

func TestFullGeometryRowMapping(t *testing.T) {
	// With the real BTB1 geometry, addresses 32 bytes apart map to
	// adjacent rows and addresses 32 KB apart map to the same row.
	tb := New(BTB1Config)
	a := zaddr.Addr(0x100000)
	if tb.RowFor(a+32) != (tb.RowFor(a)+1)%1024 {
		t.Error("adjacent lines not in adjacent rows")
	}
	if tb.RowFor(a+32*1024) != tb.RowFor(a) {
		t.Error("32KB stride should wrap to the same BTB1 row")
	}
	tb2 := New(BTB2Config)
	if tb2.RowFor(a+128*1024) != tb2.RowFor(a) {
		t.Error("128KB stride should wrap to the same BTB2 row")
	}
}

func TestEntriesEnumeration(t *testing.T) {
	tb := New(testCfg)
	want := map[zaddr.Addr]bool{}
	for i := 0; i < 10; i++ {
		a := zaddr.Addr(0x1000 + i*64)
		tb.Insert(entry(a))
		want[a] = true
	}
	got := tb.Entries()
	if len(got) != len(want) {
		t.Fatalf("Entries returned %d, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a] {
			t.Errorf("unexpected entry %#x", uint64(a))
		}
	}
}

func TestWideRowEntryMatch(t *testing.T) {
	// A 64-byte-row table distinguishes branches 32 bytes apart within
	// one row by their in-line offset.
	cfg := Config{Name: "wide", Rows: 16, Ways: 4, IndexHi: 54, IndexLo: 57}
	if cfg.LineBytes() != 64 {
		t.Fatalf("line bytes = %d", cfg.LineBytes())
	}
	tb := New(cfg)
	a := zaddr.Addr(0x2000)
	b := a + 32 // same 64-byte row, different offset
	tb.Insert(entry(a))
	tb.Insert(entry(b))
	if !tb.Contains(a) || !tb.Contains(b) {
		t.Error("wide row lost a same-row branch")
	}
	if got, _ := tb.Find(b); got.Addr != b {
		t.Errorf("Find(b) = %#x", uint64(got.Addr))
	}
	if hits := tb.LookupLine(a, nil); len(hits) != 2 {
		t.Errorf("wide-row lookup found %d entries, want 2", len(hits))
	}
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	tb := New(testCfg)
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "btb1_")
	obstest.RequireRegistered(t, r, &tb.met)
}

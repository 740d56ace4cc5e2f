package steering

import (
	"testing"
	"testing/quick"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/zaddr"
)

// counters reads tb's counter series through RegisterMetrics, named as
// a run's metrics name them.
func counters(tb *Table) map[string]int64 {
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "steering_")
	s := r.Snapshot(0)
	out := make(map[string]int64)
	for _, v := range s.Values {
		if v.Type == obs.TypeCounter {
			out[v.Name] = v.Value
		}
	}
	return out
}

func block(n uint64) zaddr.Addr { return zaddr.Addr(n * zaddr.BlockBytes) }

func isPermutation(order []int) bool {
	if len(order) != zaddr.SectorsPerBlock {
		return false
	}
	var seen uint32
	for _, s := range order {
		if s < 0 || s >= zaddr.SectorsPerBlock || seen&(1<<uint(s)) != 0 {
			return false
		}
		seen |= 1 << uint(s)
	}
	return true
}

func TestNewValidation(t *testing.T) {
	NewDefault()
	for _, bad := range [][2]int{{0, 2}, {512, 0}, {513, 2}, {384, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			New(bad[0], bad[1])
		}()
	}
}

func TestMissIsSequentialFromEntry(t *testing.T) {
	tb := NewDefault()
	entry := block(5) + 9*zaddr.SectorBytes + 4 // sector 9
	order := tb.Order(entry)
	if !isPermutation(order) {
		t.Fatalf("not a permutation: %v", order)
	}
	for i, s := range order {
		if s != (9+i)%32 {
			t.Fatalf("miss order[%d] = %d, want sequential wrap from 9", i, s)
		}
	}
	st := counters(tb)
	if st["steering_lookups_total"] != 1 || st["steering_hits_total"] != 0 {
		t.Errorf("counters = %v", st)
	}
}

func TestDemandQuartileFirstOnHit(t *testing.T) {
	tb := NewDefault()
	b := block(7)
	// Visit: enter in quartile 1 (sector 8), touch sectors 8, 9, then
	// jump to quartile 3 (sector 24). Then leave the block.
	tb.ObserveComplete(b + 8*zaddr.SectorBytes)
	tb.ObserveComplete(b + 9*zaddr.SectorBytes)
	tb.ObserveComplete(b + 24*zaddr.SectorBytes)
	tb.ObserveComplete(block(99)) // exit flushes
	// Re-enter at sector 8 and ask for the order.
	order := tb.Order(b + 8*zaddr.SectorBytes)
	if !isPermutation(order) {
		t.Fatalf("not a permutation: %v", order)
	}
	// Class 0: active demand-quartile sectors {8,9} from entry 8.
	if order[0] != 8 || order[1] != 9 {
		t.Fatalf("demand-quartile active sectors not first: %v", order[:4])
	}
	// Class 1: active sectors of referenced quartile 3 => sector 24.
	if order[2] != 24 {
		t.Fatalf("referenced-quartile active sector not third: %v", order[:4])
	}
	// All remaining (inactive) sectors must come after.
	if st := counters(tb); st["steering_hits_total"] != 1 {
		t.Errorf("counters = %v", st)
	}
}

func TestInactiveDemandBeforeInactiveOthers(t *testing.T) {
	tb := NewDefault()
	b := block(3)
	// Activate only sector 0 (quartile 0, also demand).
	tb.ObserveComplete(b)
	tb.ObserveComplete(block(50))
	order := tb.Order(b)
	if order[0] != 0 {
		t.Fatalf("active demand sector must be first: %v", order[:4])
	}
	// Sectors 1..7 (inactive, demand quartile) must precede sectors of
	// other quartiles (inactive, unreferenced).
	pos := make(map[int]int)
	for i, s := range order {
		pos[s] = i
	}
	for s := 1; s < 8; s++ {
		if pos[s] > pos[8] {
			t.Fatalf("inactive demand sector %d after other-quartile sector 8: %v", s, order)
		}
	}
}

func TestLiveStateIncludedWithoutFlush(t *testing.T) {
	tb := NewDefault()
	b := block(11)
	tb.ObserveComplete(b + 2*zaddr.SectorBytes) // still live, not flushed
	order := tb.Order(b + 2*zaddr.SectorBytes)
	if order[0] != 2 {
		t.Fatalf("live visit state ignored: %v", order[:4])
	}
	if counters(tb)["steering_hits_total"] != 1 {
		t.Error("live-state lookup should count as a hit")
	}
}

func TestReturnToBlockMergesHistory(t *testing.T) {
	tb := NewDefault()
	b := block(4)
	tb.ObserveComplete(b + 1*zaddr.SectorBytes)
	tb.ObserveComplete(block(60)) // flush visit 1
	tb.ObserveComplete(b + 5*zaddr.SectorBytes)
	tb.ObserveComplete(block(60)) // flush visit 2 (merge)
	order := tb.Order(b + 1*zaddr.SectorBytes)
	pos := make(map[int]int)
	for i, s := range order {
		pos[s] = i
	}
	// Both sector 1 and sector 5 are active demand-quartile sectors.
	if pos[1] > 7 || pos[5] > 7 {
		t.Fatalf("merged sectors not prioritized: %v", order[:8])
	}
	if n := counters(tb)["steering_merges_total"]; n != 1 {
		t.Errorf("steering_merges_total = %d, want 1", n)
	}
}

func TestDemandQuartileIsPerVisit(t *testing.T) {
	tb := NewDefault()
	b := block(9)
	// Visit entering quartile 0, touching quartile 2 => ref 0->2.
	tb.ObserveComplete(b + 0*zaddr.SectorBytes)
	tb.ObserveComplete(b + 16*zaddr.SectorBytes)
	tb.ObserveComplete(block(70))
	// Search entering at quartile 1: demand is 1 now; quartile 2 is only
	// prioritized if referenced *from quartile 1*, which it is not.
	order := tb.Order(b + 8*zaddr.SectorBytes)
	pos := make(map[int]int)
	for i, s := range order {
		pos[s] = i
	}
	// Active sector 0 (class 2: active, not demand, not referenced from 1)
	// must still precede inactive non-demand sectors but come after the
	// inactive demand quartile? No: class 2 (active other) < class 3
	// (inactive demand). Check class order: sector 0 active-other before
	// inactive demand sector 9.
	if pos[0] > pos[9] {
		t.Fatalf("active sector 0 should precede inactive demand sector 9: %v", order)
	}
	// Sector 16 (active, quartile 2, not referenced from demand 1) is
	// class 2 as well.
	if pos[16] > pos[9] {
		t.Fatalf("active sector 16 should precede inactive demand sector 9: %v", order)
	}
}

func TestOrderAlwaysPermutation(t *testing.T) {
	f := func(seed uint32, touches []uint16, entryRaw uint16) bool {
		tb := New(64, 2)
		b := block(uint64(seed % 100))
		for _, tv := range touches {
			blk := b
			if tv%7 == 0 {
				blk = block(uint64(tv % 5)) // occasionally other blocks
			}
			tb.ObserveComplete(blk + zaddr.Addr(tv%zaddr.BlockBytes)&^1)
		}
		entry := b + zaddr.Addr(entryRaw%zaddr.BlockBytes)&^1
		return isPermutation(tb.Order(entry))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCapacityEviction(t *testing.T) {
	tb := New(4, 2) // 2 sets x 2 ways: blocks alias mod 2
	// Fill set 0 with blocks 0 and 2, then flush block 4 into set 0.
	tb.ObserveComplete(block(0))
	tb.ObserveComplete(block(2))
	tb.ObserveComplete(block(4))
	tb.ObserveComplete(block(99)) // flush 4
	// Block 0 (LRU of set 0) must be gone: its order is sequential now.
	order := tb.Order(block(0) + 3*zaddr.SectorBytes)
	for i, s := range order {
		if s != (3+i)%32 {
			t.Fatalf("evicted block still steered: %v", order[:4])
		}
	}
}

func TestReset(t *testing.T) {
	tb := NewDefault()
	tb.ObserveComplete(block(1))
	tb.ObserveComplete(block(2))
	tb.Reset()
	for name, v := range counters(tb) {
		if v != 0 {
			t.Errorf("Reset left %s = %d", name, v)
		}
	}
	order := tb.Order(block(1))
	for i, s := range order {
		if s != i%32 {
			t.Fatal("Reset left steering state")
		}
	}
}

func TestPaperGeometryReach(t *testing.T) {
	// 512 entries x 4 KB blocks = 2 MB instruction footprint.
	if DefaultEntries*zaddr.BlockBytes != 2*1024*1024 {
		t.Error("ordering table reach is not 2 MB")
	}
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	tb := New(4, 2)
	r := obs.NewRegistry()
	tb.RegisterMetrics(r, "steering_")
	obstest.RequireRegistered(t, r, &tb.met)
}

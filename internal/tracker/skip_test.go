package tracker

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bulkpreload/internal/zaddr"
)

// TestDrainSkipIsExact replays random miss reports and drains on two
// tracker arrays, one keeping the Drain skip bound and one made to scan
// on every Drain, and requires identical reads, counters and active
// searches at every step. Time mostly advances a cycle or two at a
// time, so drains land on the exact cycles reads and reaps fall due.
func TestDrainSkipIsExact(t *testing.T) {
	one := DefaultConfig
	one.Count = 1
	unfiltered := DefaultConfig
	unfiltered.FilterByICache = false
	type setup struct {
		cfg      Config
		rowBytes int
	}
	for name, su := range map[string]setup{
		"default":     {DefaultConfig, zaddr.RowBytes},
		"128B-rows":   {DefaultConfig, 128},
		"one-tracker": {one, zaddr.RowBytes},
		"unfiltered":  {unfiltered, zaddr.RowBytes},
	} {
		cfg, rowBytes := su.cfg, su.rowBytes
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				skip, scan := New(cfg, rowBytes, seqOrder{}), New(cfg, rowBytes, seqOrder{})
				r := rand.New(rand.NewSource(seed))
				// skipped counts drains the bound answered without a scan;
				// reapUpgrades counts drains that upgraded a raced partial
				// search (only reap upgrades inside Drain).
				now, skipped, reapUpgrades := uint64(0), 0, int64(0)
				for step := 0; step < 20000; step++ {
					if r.Intn(50) == 0 {
						now += uint64(r.Intn(400))
					} else {
						now += uint64(r.Intn(3))
					}
					addr := zaddr.Addr(0x40000 + r.Intn(4)*zaddr.BlockBytes + r.Intn(zaddr.BlockBytes))
					switch op := r.Intn(12); {
					case op == 0:
						skip.OnBTB1Miss(addr, now)
						scan.OnBTB1Miss(addr, now)
					case op == 1:
						skip.OnICacheMiss(addr, now)
						scan.OnICacheMiss(addr, now)
					case op == 2:
						skip.RaceICacheMiss(addr)
						scan.RaceICacheMiss(addr)
					default:
						if now < skip.due {
							skipped++
						}
						scan.ForgetDue()
						before := skip.met.upgrades.Value()
						got, want := skip.Drain(now), scan.Drain(now)
						reapUpgrades += skip.met.upgrades.Value() - before
						if !slices.Equal(got, want) {
							t.Fatalf("step %d, cycle %d: Drain = %v, scanning Drain = %v", step, now, got, want)
						}
					}
					if g, w := skip.met, scan.met; g != w {
						t.Fatalf("step %d, cycle %d: counters %+v, want %+v", step, now, g, w)
					}
					if g, w := skip.ActiveSearches(now), scan.ActiveSearches(now); g != w {
						t.Fatalf("step %d, cycle %d: ActiveSearches %d, want %d", step, now, g, w)
					}
					if g, w := skip.PendingReads(), scan.PendingReads(); g != w {
						t.Fatalf("step %d, cycle %d: PendingReads %d, want %d", step, now, g, w)
					}
				}
				if skipped == 0 || (cfg.FilterByICache && reapUpgrades == 0) {
					t.Fatalf("replay too tame: %d drains skipped, %d upgrades at reap", skipped, reapUpgrades)
				}
			})
		}
	}
}

// TestReapUpgradesAtDueCycle pins the case the skip bound must never
// overshoot: a partial search whose I-cache bit was set as it completed
// upgrades at exactly its last read's cycle.
func TestReapUpgradesAtDueCycle(t *testing.T) {
	const partialRows = PartialBytes / zaddr.RowBytes
	tr := newT(t, DefaultConfig)
	addr := zaddr.Addr(0x30000)
	tr.OnBTB1Miss(addr, 0)
	tr.RaceICacheMiss(addr)
	last := uint64(StartDelay + PipeDepth + partialRows - 1)
	if reads := tr.Drain(last - 1); len(reads) != partialRows-1 {
		t.Fatalf("drained %d rows before the last partial row, want %d", len(reads), partialRows-1)
	}
	if counters(tr)["tracker_upgrades_total"] != 0 {
		t.Fatal("upgraded before the partial search completed")
	}
	if reads := tr.Drain(last); len(reads) != 1 {
		t.Fatalf("drained %d rows at the last partial row's cycle, want 1", len(reads))
	}
	if st := counters(tr); st["tracker_upgrades_total"] != 1 || st["tracker_invalidated_total"] != 0 {
		t.Fatalf("at cycle %d: %v, want the partial search upgraded", last, st)
	}
	if got := tr.PendingReads(); got != zaddr.RowsPerBlock-partialRows {
		t.Fatalf("upgrade scheduled %d rows, want %d", got, zaddr.RowsPerBlock-partialRows)
	}
}

package core

import (
	"strings"
	"testing"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// counters reads the counter series of h and its structures through
// RegisterMetrics, named as a run's metrics name them. A disabled
// structure registers nothing, so its series read as absent (zero).
func counters(h *Hierarchy) map[string]int64 {
	r := obs.NewRegistry()
	h.RegisterMetrics(r)
	s := r.Snapshot(0)
	out := make(map[string]int64)
	for _, v := range s.Values {
		if v.Type == obs.TypeCounter {
			out[v.Name] = v.Value
		}
	}
	return out
}

// testConfig returns a small but fully-featured two-level config so tests
// can exercise evictions without thousands of installs.
func testConfig() Config {
	c := DefaultConfig()
	c.BTB1 = btb.Config{Name: "BTB1", Rows: 16, Ways: 2, IndexHi: 55, IndexLo: 58}
	c.BTBP = btb.Config{Name: "BTBP", Rows: 8, Ways: 2, IndexHi: 56, IndexLo: 58}
	c.BTB2 = btb.Config{Name: "BTB2", Rows: 64, Ways: 2, IndexHi: 53, IndexLo: 58}
	c.SurpriseInstallDelay = 10
	return c
}

func takenBranch(a, tgt zaddr.Addr) trace.Inst {
	return trace.Inst{Addr: a, Target: tgt, Length: 4, Kind: trace.CondDirect, Taken: true}
}

// run a surprise resolve and make its install visible.
func installBranch(h *Hierarchy, in trace.Inst, now uint64) {
	h.Resolve(in, nil, now)
	h.Advance(now + h.cfg.SurpriseInstallDelay)
}

func TestConfigValidators(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), OneLevelConfig(), LargeOneLevelConfig(), testConfig()} {
		if err := c.Validate(); err != nil {
			t.Errorf("config invalid: %v", err)
		}
	}
	bad := DefaultConfig()
	bad.Policy = Policy(9)
	if err := bad.Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if SemiExclusive.String() != "semi-exclusive" || TrueExclusive.String() != "true-exclusive" ||
		Inclusive.String() != "inclusive" || Policy(9).String() != "Policy(9)" {
		t.Error("Policy.String wrong")
	}
	if LevelNone.String() != "none" || LevelBTB1.String() != "BTB1" || LevelBTBP.String() != "BTBP" {
		t.Error("Level.String wrong")
	}
}

func TestFootprintEstimate(t *testing.T) {
	// Paper: first level (4k + 768 branches) covers 114 KB - 142.5 KB.
	c := DefaultConfig()
	lo, hi := c.EstimatedFootprint()
	if lo != 4864*24 || hi != 4864*30 {
		t.Errorf("footprint = %d..%d", lo, hi)
	}
	if float64(lo)/1024 != 114.0 {
		t.Errorf("low bound = %.1f KB, want 114", float64(lo)/1024)
	}
	if float64(hi)/1024 != 142.5 {
		t.Errorf("high bound = %.1f KB, want 142.5", float64(hi)/1024)
	}
}

func TestSurpriseInstallVisibilityDelay(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	br := takenBranch(0x1000, 0x2000)
	if _, ok := h.Predict(br.Addr, 0); ok {
		t.Fatal("empty hierarchy predicted")
	}
	h.Resolve(br, nil, 100)
	// Within the install window: still a miss, and flagged as pending.
	if _, ok := h.Predict(br.Addr, 105); ok {
		t.Fatal("prediction visible before install delay elapsed")
	}
	if !h.PendingSurpriseFor(br.Addr) {
		t.Fatal("pending install not reported")
	}
	// After the window: predicted from the BTBP.
	p, ok := h.Predict(br.Addr, 111)
	if !ok {
		t.Fatal("install never became visible")
	}
	if p.Level != LevelBTBP {
		t.Errorf("first prediction level = %v, want BTBP", p.Level)
	}
	if !p.Taken || p.Target != 0x2000 {
		t.Errorf("prediction = %+v", p)
	}
	if h.PendingSurpriseFor(br.Addr) {
		t.Error("install still pending after Advance")
	}
}

func TestBTBPPromotionToBTB1(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	br := takenBranch(0x1000, 0x2000)
	installBranch(h, br, 0)
	// First prediction comes from BTBP and moves the entry to BTB1.
	if p, _ := h.Predict(br.Addr, 100); p.Level != LevelBTBP {
		t.Fatalf("first hit level = %v", p.Level)
	}
	in1, inP, _ := h.Contains(br.Addr)
	if !in1 {
		t.Error("entry not promoted to BTB1")
	}
	if inP {
		t.Error("entry not removed from BTBP on promotion (moved, not copied)")
	}
	// Second prediction hits the BTB1.
	if p, _ := h.Predict(br.Addr, 200); p.Level != LevelBTB1 {
		t.Errorf("second hit level = %v", p.Level)
	}
	st := counters(h)
	if st["hier_promotions_total"] != 1 || st["hier_btbp_hits_total"] != 1 || st["hier_btb1_hits_total"] != 1 {
		t.Errorf("counters = %v", st)
	}
}

func TestVictimCascadeToBTBPAndBTB2(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, fault.Config{})
	// Fill one BTB1 row (2 ways) and overflow it. BTB1 rows stride:
	// 16 rows * 32 B = 512 B.
	a := zaddr.Addr(0x1000)
	b := a + 512
	c := a + 1024
	for _, addr := range []zaddr.Addr{a, b, c} {
		installBranch(h, takenBranch(addr, addr+0x100), 0)
		h.Predict(addr, 1000) // promote into BTB1
		h.Resolve(takenBranch(addr, addr+0x100), &Prediction{Branch: addr, Taken: true, Target: addr + 0x100, Entry: btb.Entry{Addr: addr, Target: addr + 0x100, Length: 4}}, 1000)
	}
	// a was LRU in its BTB1 row; promoting c must have evicted it into
	// BTBP and BTB2.
	in1, inP, in2 := h.Contains(a)
	if in1 {
		t.Error("victim still in BTB1")
	}
	if !inP {
		t.Error("victim not written to BTBP")
	}
	if !in2 {
		t.Error("victim not written to BTB2")
	}
	if n := counters(h)["hier_btb1_victims_total"]; n != 1 {
		t.Errorf("hier_btb1_victims_total = %d, want 1", n)
	}
}

func TestBulkTransferEndToEnd(t *testing.T) {
	cfg := testConfig()
	// Widen the BTB2 so first-level churn does not also evict the branch
	// under test from the second level.
	cfg.BTB2 = btb.Config{Name: "BTB2", Rows: 64, Ways: 4, IndexHi: 53, IndexLo: 58}
	h := New(cfg, fault.Config{})
	// Put a branch in the BTB2 only (surprise install writes BTB2
	// immediately; evict it from the first level by never promoting and
	// letting BTBP churn push it out).
	br := takenBranch(0x40010, 0x40100)
	h.Resolve(br, nil, 0)
	h.Advance(100) // BTBP install visible
	// Remove from first level via churn: conflicting branches share br's
	// BTB1 and BTBP rows but live in other 4 KB blocks and in a different
	// BTB2 row, so the bulk transfer of br's block later returns only br.
	for i := 1; i <= 8; i++ {
		filler := takenBranch(br.Addr+zaddr.Addr(i*4096+512), 0x9000)
		installBranch(h, filler, uint64(i*100))
		h.Predict(filler.Addr, uint64(i*100+50))
	}
	in1, inP, in2 := h.Contains(br.Addr)
	if in1 || inP {
		t.Fatalf("test setup: branch still in first level (btb1=%v btbp=%v)", in1, inP)
	}
	if !in2 {
		t.Fatal("test setup: branch lost from BTB2")
	}
	// Now: BTB1 miss + I-cache miss in its block trigger a full search.
	now := uint64(100000)
	h.ReportBTB1Miss(br.Addr, now)
	h.ReportICacheMiss(br.Addr, now)
	// Full transfer done within 7 + 8 + 128 cycles.
	h.Advance(now + 200)
	_, inP, _ = h.Contains(br.Addr)
	if !inP {
		t.Fatal("bulk transfer did not preload the branch into the BTBP")
	}
	st := counters(h)
	if st["hier_transferred_hits_total"] == 0 || st["hier_transfer_reads_total"] == 0 {
		t.Errorf("transfer counters = %v", st)
	}
	// The prediction now hits without any new surprise.
	if _, ok := h.Predict(br.Addr, now+300); !ok {
		t.Error("preloaded branch still missing")
	}
}

func TestSemiExclusiveDemotesBTB2Hit(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	br := takenBranch(0x40010, 0x40100)
	h.Resolve(br, nil, 0) // BTB2 write
	now := uint64(1000)
	h.ReportBTB1Miss(br.Addr, now)
	h.ReportICacheMiss(br.Addr, now)
	h.Advance(now + 200)
	// The BTB2 copy must still exist (semi-exclusive: demoted, not
	// invalidated).
	_, _, in2 := h.Contains(br.Addr)
	if !in2 {
		t.Error("semi-exclusive policy invalidated the BTB2 hit")
	}
}

func TestTrueExclusiveInvalidatesBTB2Hit(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = TrueExclusive
	h := New(cfg, fault.Config{})
	br := takenBranch(0x40010, 0x40100)
	h.Resolve(br, nil, 0)
	now := uint64(1000)
	h.ReportBTB1Miss(br.Addr, now)
	h.ReportICacheMiss(br.Addr, now)
	h.Advance(now + 200)
	if _, _, in2 := h.Contains(br.Addr); in2 {
		t.Error("true-exclusive policy left the BTB2 hit valid")
	}
}

func TestPHTGatingOnDirectionMispredict(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	br := takenBranch(0x3000, 0x5000)
	installBranch(h, br, 0)
	// Alternating branch: T,NT,T,NT... The bimodal mispredicts; after the
	// first wrong direction the entry is gated onto the PHT.
	taken := true
	phtUses := 0
	for i := 0; i < 40; i++ {
		now := uint64(1000 + i*100)
		p, ok := h.Predict(br.Addr, now)
		if !ok {
			t.Fatal("prediction lost")
		}
		in := br
		in.Taken = taken
		if !taken {
			in.Target = 0x5000
		}
		h.Resolve(in, &p, now)
		if p.UsedPHT {
			phtUses++
		}
		taken = !taken
	}
	if phtUses == 0 {
		t.Error("PHT never engaged for a multi-direction branch")
	}
	if counters(h)["hier_pht_overrides_total"] == 0 {
		t.Error("PHTOverrides not counted")
	}
}

func TestCTBGatingOnTargetChange(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	a := zaddr.Addr(0x3000)
	// Branch alternates targets 0x5000/0x7000 correlated with path.
	installBranch(h, takenBranch(a, 0x5000), 0)
	ctbUses := 0
	for i := 0; i < 40; i++ {
		now := uint64(1000 + i*100)
		tgt := zaddr.Addr(0x5000)
		pathBr := zaddr.Addr(0x100)
		if i%2 == 1 {
			tgt = 0x7000
			pathBr = 0x200
		}
		// Distinct path: a preceding taken branch differs per target.
		h.hist.RecordPrediction(pathBr, true)
		p, ok := h.Predict(a, now)
		if !ok {
			t.Fatal("prediction lost")
		}
		in := trace.Inst{Addr: a, Target: tgt, Length: 4, Kind: trace.IndirectOther, Taken: true}
		h.Resolve(in, &p, now)
		if p.UsedCTB {
			ctbUses++
		}
	}
	if ctbUses == 0 {
		t.Error("CTB never engaged for a multi-target branch")
	}
}

func TestNotTakenSurpriseNotInstalled(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	in := trace.Inst{Addr: 0x1000, Target: 0x2000, Length: 4, Kind: trace.CondDirect, Taken: false}
	h.Resolve(in, nil, 0)
	h.Advance(1000)
	if in1, inP, in2 := h.Contains(in.Addr); in1 || inP || in2 {
		t.Error("never-taken surprise branch was installed")
	}
	// With the ablation knob it is installed.
	cfg := testConfig()
	cfg.InstallNotTaken = true
	h2 := New(cfg, fault.Config{})
	h2.Resolve(in, nil, 0)
	h2.Advance(1000)
	if _, inP, _ := h2.Contains(in.Addr); !inP {
		t.Error("InstallNotTaken knob ignored")
	}
}

func TestSearchLine(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	a := zaddr.Addr(0x2008)
	b := zaddr.Addr(0x2010) // same 32-byte line
	installBranch(h, takenBranch(a, 0x9000), 0)
	installBranch(h, takenBranch(b, 0x9000), 0)
	// a moves to the BTB1, b stays in the BTBP: the search must see both.
	if _, ok := h.Predict(a, 100); !ok {
		t.Fatal("installed branch missed")
	}
	if in1, inP, _ := h.Contains(a); !in1 || inP {
		t.Fatalf("a not promoted to the BTB1 (BTB1 %v, BTBP %v)", in1, inP)
	}
	before := counters(h)
	if !h.SearchLine(0x2000, 1000) {
		t.Error("SearchLine(0x2000) missed both branches")
	}
	// Offset filter, inclusive: b sits at offset 0x10 of the BTBP row.
	if !h.SearchLine(0x2010, 1000) {
		t.Error("SearchLine(0x2010) missed the BTBP branch at its own offset")
	}
	if h.SearchLine(0x2011, 1000) {
		t.Error("SearchLine ignored the offset filter")
	}
	// Line with nothing.
	if h.SearchLine(0x9000, 1000) {
		t.Error("empty line reported found")
	}
	// Every search reads one row of each table, hit or not.
	after := counters(h)
	if d1, dp := after["btb1_lookups_total"]-before["btb1_lookups_total"],
		after["btbp_lookups_total"]-before["btbp_lookups_total"]; d1 != 4 || dp != 4 {
		t.Errorf("4 searches charged %d BTB1 and %d BTBP row reads, want 4 each", d1, dp)
	}
}

func TestSurpriseGuess(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	// Unconditional kinds are always guessed taken.
	call := trace.Inst{Addr: 0x100, Target: 0x900, Length: 4, Kind: trace.Call, Taken: true}
	if !h.SurpriseGuess(call) {
		t.Error("call not guessed taken")
	}
	// Untrained conditional defers to the static guess.
	cond := trace.Inst{Addr: 0x200, Length: 4, Kind: trace.CondDirect, StaticTaken: true}
	if !h.SurpriseGuess(cond) {
		t.Error("static taken guess ignored")
	}
	cond.StaticTaken = false
	if h.SurpriseGuess(cond) {
		t.Error("static not-taken guess ignored")
	}
	// After training, the surprise BHT overrides the static guess.
	condTaken := cond
	condTaken.Taken = true
	condTaken.Target = 0x1234
	h.Resolve(condTaken, nil, 0)
	if !h.SurpriseGuess(cond) {
		t.Error("trained surprise BHT ignored")
	}
}

func TestFITLookupAfterTraining(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	br := takenBranch(0x1000, 0x2000)
	installBranch(h, br, 0)
	p, _ := h.Predict(br.Addr, 100)
	h.Resolve(br, &p, 100)
	if !h.FITLookup(br.Addr, 0x2000) {
		t.Error("FIT not trained by taken resolve")
	}
	if h.FITLookup(br.Addr, 0x3000) {
		t.Error("FIT hit with wrong next address")
	}
}

func TestOneLevelConfigRejectsBTB2Calls(t *testing.T) {
	h := New(OneLevelConfig(), fault.Config{})
	// Must be safe no-ops.
	h.ReportBTB1Miss(0x1000, 0)
	h.ReportICacheMiss(0x1000, 0)
	h.Advance(100)
	h.ObserveComplete(0x1000)
	for name, v := range counters(h) {
		if strings.HasPrefix(name, "tracker_") || strings.HasPrefix(name, "btb2_") {
			t.Errorf("disabled BTB2 registered %s = %d", name, v)
		}
	}
}

func TestReset(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	installBranch(h, takenBranch(0x1000, 0x2000), 0)
	h.Predict(0x1000, 100)
	h.Reset()
	if _, ok := h.Predict(0x1000, 200); ok {
		t.Error("Reset left predictions")
	}
	// Predictions counts only successful predictions; the post-reset miss
	// contributes nothing.
	for name, v := range counters(h) {
		if v != 0 {
			t.Errorf("%s = %d after reset", name, v)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid config")
		}
	}()
	bad := DefaultConfig()
	bad.Miss.SearchLimit = 0
	New(bad, fault.Config{})
}

func TestNewPanicsOnBadFaultConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid fault config")
		}
	}()
	New(DefaultConfig(), fault.Config{PHTPerM: -1})
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	r := obs.NewRegistry()
	h.RegisterMetrics(r)
	obstest.RequireRegistered(t, r, &h.met)
}

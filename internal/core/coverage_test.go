package core

import (
	"testing"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

func TestMissModeStrings(t *testing.T) {
	cases := map[MissMode]string{
		MissSpeculative:    "speculative",
		MissDecodeSurprise: "decode-surprise",
		MissBoth:           "both",
		MissMode(9):        "MissMode(9)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if !MissSpeculative.Speculative() || MissSpeculative.DecodeSurprise() {
		t.Error("MissSpeculative predicates wrong")
	}
	if MissDecodeSurprise.Speculative() || !MissDecodeSurprise.DecodeSurprise() {
		t.Error("MissDecodeSurprise predicates wrong")
	}
	if !MissBoth.Speculative() || !MissBoth.DecodeSurprise() {
		t.Error("MissBoth predicates wrong")
	}
}

func TestConfigValidateMissMode(t *testing.T) {
	bad := DefaultConfig()
	bad.MissMode = MissMode(7)
	if err := bad.Validate(); err == nil {
		t.Error("unknown miss mode accepted")
	}
	badTracker := DefaultConfig()
	badTracker.Tracker.Count = 0
	if err := badTracker.Validate(); err == nil {
		t.Error("invalid tracker accepted")
	}
	badBTB2 := DefaultConfig()
	badBTB2.BTB2.Rows = 5
	if err := badBTB2.Validate(); err == nil {
		t.Error("invalid BTB2 accepted")
	}
}

func TestAccessorSurface(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	// The table counters surface under each table's series.
	installBranch(h, takenBranch(0x1000, 0x2000), 0)
	h.Predict(0x1000, 100)
	st := counters(h)
	for _, name := range []string{"btbp_installs_total", "btb1_installs_total", "btb2_installs_total"} {
		if st[name] == 0 {
			t.Errorf("%s not surfaced", name)
		}
	}
	if st["tracker_btb1_misses_total"] != 0 {
		t.Error("unexpected tracker activity")
	}
	h.ObserveComplete(0x1000) // steering live path
}

func TestSequentialOrderFallback(t *testing.T) {
	// With steering disabled, the hierarchy uses the sequential orderer.
	cfg := testConfig()
	cfg.UseSteering = false
	h := New(cfg, fault.Config{})
	br := takenBranch(0x40010, 0x40100)
	h.Resolve(br, nil, 0)
	// Evict from first level quickly by direct churn.
	for i := 1; i <= 8; i++ {
		f := takenBranch(br.Addr+zaddr.Addr(i*4096+512), 0x9000)
		installBranch(h, f, uint64(i*100))
		h.Predict(f.Addr, uint64(i*100+50))
	}
	h.ReportBTB1Miss(br.Addr, 100000)
	h.ReportICacheMiss(br.Addr, 100000)
	h.Advance(100200)
	if counters(h)["hier_transfer_reads_total"] == 0 {
		t.Error("sequential orderer produced no reads")
	}
	// The sequentialOrder helper itself returns a valid permutation.
	order := new(sequentialOrder).Order(0x40000 + 5*zaddr.SectorBytes)
	if len(order) != zaddr.SectorsPerBlock || order[0] != 5 {
		t.Errorf("sequential order wrong: %v", order[:3])
	}
}

func TestInclusivePolicyVictimUpdate(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = Inclusive
	h := New(cfg, fault.Config{})
	// Fill a BTB1 row and force a victim cascade: the inclusive policy
	// must update (or reinstall) the BTB2 copy.
	a := zaddr.Addr(0x1000)
	for i := 0; i < 3; i++ {
		addr := a + zaddr.Addr(i*512)
		installBranch(h, takenBranch(addr, addr+0x100), uint64(i*100))
		h.Predict(addr, uint64(i*100+50))
	}
	if _, _, in2 := h.Contains(a); !in2 {
		t.Error("inclusive policy lost the victim's BTB2 copy")
	}
	if counters(h)["hier_btb2_writes_total"] == 0 {
		t.Error("no BTB2 writes recorded")
	}
}

func TestInclusiveVictimReinstallsWhenAliased(t *testing.T) {
	// If the BTB2 copy was lost (evicted), the inclusive victim write
	// reinstalls it.
	cfg := testConfig()
	cfg.Policy = Inclusive
	cfg.BTB2 = btb.Config{Name: "BTB2", Rows: 64, Ways: 1, IndexHi: 53, IndexLo: 58}
	h := New(cfg, fault.Config{})
	a := zaddr.Addr(0x1000)
	installBranch(h, takenBranch(a, a+0x100), 0)
	h.Predict(a, 100) // promote into BTB1
	// Overwrite its single-way BTB2 row with an alias.
	alias := a + 2048 // same BTB2 row (64 rows x 32B)
	h.Resolve(takenBranch(alias, 0x9000), nil, 200)
	if _, _, in2 := h.Contains(a); in2 {
		t.Fatal("setup: alias did not evict the BTB2 copy")
	}
	// Now force a to be evicted from BTB1: victims reinstall into BTB2.
	for i := 1; i <= 2; i++ {
		addr := a + zaddr.Addr(i*512)
		installBranch(h, takenBranch(addr, 0x9000), uint64(300*i))
		h.Predict(addr, uint64(300*i+50))
	}
	if _, _, in2 := h.Contains(a); !in2 {
		t.Error("inclusive victim write did not reinstall the lost copy")
	}
}

func TestPreloadBranchDuplicateDropped(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	installBranch(h, takenBranch(0x1000, 0x2000), 0)
	n := counters(h)["hier_preload_installs_total"]
	h.PreloadBranch(0x1000, 0x2000, 4, 100) // already in BTBP
	if counters(h)["hier_preload_installs_total"] != n {
		t.Error("duplicate preload not dropped")
	}
}

func TestBypassBTBPInstallsDirect(t *testing.T) {
	cfg := testConfig()
	cfg.BypassBTBP = true
	h := New(cfg, fault.Config{})
	br := takenBranch(0x1000, 0x2000)
	h.Resolve(br, nil, 0)
	h.Advance(100)
	in1, inP, _ := h.Contains(br.Addr)
	if !in1 {
		t.Error("bypass mode did not install into BTB1")
	}
	if inP {
		t.Error("bypass mode still wrote the BTBP")
	}
}

func TestResolveSurpriseNotTakenTrainsBHT(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	cond := trace.Inst{Addr: 0x3000, Length: 4, Kind: trace.CondDirect,
		Taken: false, StaticTaken: true}
	// Before training, the static guess (taken) wins.
	if !h.SurpriseGuess(cond) {
		t.Fatal("static guess ignored")
	}
	h.Resolve(cond, nil, 0)
	// The surprise BHT learned not-taken; no entry was installed.
	if h.SurpriseGuess(cond) {
		t.Error("surprise BHT did not learn not-taken")
	}
	if in1, inP, in2 := h.Contains(cond.Addr); in1 || inP || in2 {
		t.Error("never-taken branch installed")
	}
}

func TestChaseRespectsRecentRing(t *testing.T) {
	cfg := testConfig()
	cfg.MultiBlockTransfer = true
	cfg.BTB2 = btb.Config{Name: "BTB2", Rows: 256, Ways: 4, IndexHi: 51, IndexLo: 58}
	h := New(cfg, fault.Config{})
	// Install several branches in block A whose targets point into block
	// B (cross-block references), all in the BTB2.
	blockA := zaddr.Addr(0x40000)
	blockB := zaddr.Addr(0x42000)
	for i := 0; i < 4; i++ {
		br := takenBranch(blockA+zaddr.Addr(i*256), blockB+zaddr.Addr(i*64))
		h.Resolve(br, nil, 0)
	}
	// Evict them from the first level.
	for i := 1; i <= 10; i++ {
		f := takenBranch(blockA+zaddr.Addr(i*8192+512), 0x9000)
		installBranch(h, f, uint64(i*100))
		h.Predict(f.Addr, uint64(i*100+50))
	}
	// Trigger a full search of block A; the transfers reference block B
	// at least twice, so a chase should fire exactly once.
	h.ReportBTB1Miss(blockA, 100000)
	h.ReportICacheMiss(blockA, 100000)
	h.Advance(100400)
	first := counters(h)["hier_chained_searches_total"]
	if first == 0 {
		t.Fatal("no chase fired")
	}
	// Re-transfer the same block: block B is in the recent ring, so no
	// second chase.
	h.ReportBTB1Miss(blockA+64, 200000)
	h.ReportICacheMiss(blockA+64, 200000)
	h.Advance(200400)
	if counters(h)["hier_chained_searches_total"] != first {
		t.Error("chase repeated for a recently chased block")
	}
}

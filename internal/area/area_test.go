package area

import (
	"testing"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/core"
	"bulkpreload/internal/obs"
)

func TestTechnologiesValid(t *testing.T) {
	for _, tech := range []Technology{SRAM, EDRAM, RegisterFile} {
		if err := tech.Validate(); err != nil {
			t.Errorf("%s: %v", tech.Name, err)
		}
	}
	if err := (Technology{}).Validate(); err == nil {
		t.Error("zero technology accepted")
	}
}

func TestEDRAMDenserThanSRAM(t *testing.T) {
	// The premise of the Section 6 argument.
	if EDRAM.BitAreaUm2 >= SRAM.BitAreaUm2 {
		t.Error("eDRAM must be denser than SRAM")
	}
	if RegisterFile.BitAreaUm2 <= SRAM.BitAreaUm2 {
		t.Error("register file must be larger than SRAM per bit")
	}
}

func TestEntryBits(t *testing.T) {
	base := EntryBits(btb.BTB1Config)
	if base <= 0 {
		t.Fatal("non-positive entry bits")
	}
	// Wider rows cost extra offset bits.
	wide := btb.Config{Name: "w", Rows: 2048, Ways: 6, IndexHi: 47, IndexLo: 57}
	if EntryBits(wide) != base+1 {
		t.Errorf("64B-row entry = %d bits, want %d", EntryBits(wide), base+1)
	}
	// Explicit partial tags override the default width.
	tagged := btb.BTB1Config
	tagged.TagBits = 10
	if EntryBits(tagged) != base-DefaultTag+10 {
		t.Errorf("tagged entry = %d bits", EntryBits(tagged))
	}
}

func TestAnalyzeShapes(t *testing.T) {
	twoLevelSRAM := Analyze(core.DefaultConfig(), SRAM)
	twoLevelEDRAM := Analyze(core.DefaultConfig(), EDRAM)
	oneLevelBig := Analyze(core.LargeOneLevelConfig(), SRAM)
	baseline := Analyze(core.OneLevelConfig(), SRAM)

	// Structure counts: 3 with BTB2, 2 without.
	if len(twoLevelSRAM.Structures) != 3 || len(baseline.Structures) != 2 {
		t.Fatalf("structure counts wrong: %d / %d",
			len(twoLevelSRAM.Structures), len(baseline.Structures))
	}
	// Same capacity (4k+768+24k vs 24k+768): the two-level holds more.
	if twoLevelSRAM.Capacity != 4096+768+24576 {
		t.Errorf("two-level capacity = %d", twoLevelSRAM.Capacity)
	}
	if oneLevelBig.Capacity != 24576+768 {
		t.Errorf("one-level capacity = %d", oneLevelBig.Capacity)
	}
	// The Section 6 claim: eDRAM BTB2 yields more predictions per mm^2
	// than both the all-SRAM two-level and the big SRAM one-level.
	if !(twoLevelEDRAM.PredictionsPerMm2 > twoLevelSRAM.PredictionsPerMm2) {
		t.Errorf("eDRAM BTB2 not denser: %.0f vs %.0f",
			twoLevelEDRAM.PredictionsPerMm2, twoLevelSRAM.PredictionsPerMm2)
	}
	if !(twoLevelEDRAM.PredictionsPerMm2 > oneLevelBig.PredictionsPerMm2) {
		t.Errorf("two-level eDRAM not denser than big SRAM BTB1: %.0f vs %.0f",
			twoLevelEDRAM.PredictionsPerMm2, oneLevelBig.PredictionsPerMm2)
	}
	// Areas are positive and total is the sum.
	sum := 0.0
	for _, s := range twoLevelSRAM.Structures {
		if s.AreaMm2 <= 0 {
			t.Errorf("%s: non-positive area", s.Name)
		}
		sum += s.AreaMm2
	}
	if diff := sum - twoLevelSRAM.TotalMm2; diff > 1e-9 || diff < -1e-9 {
		t.Error("total != sum of parts")
	}
}

func TestAnalyzePanicsOnBadTech(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Analyze accepted invalid technology")
		}
	}()
	Analyze(core.DefaultConfig(), Technology{})
}

// counters builds a snapshot holding the given counter values.
func counters(vals map[string]int64) *obs.Snapshot {
	s := &obs.Snapshot{}
	for name, v := range vals {
		s.Values = append(s.Values, obs.Value{Name: name, Type: obs.TypeCounter, Value: v})
	}
	return s
}

func TestEstimateEnergy(t *testing.T) {
	cfg := core.DefaultConfig()
	counts := counters(map[string]int64{
		"btb1_lookups_total": 1000, "btb1_installs_total": 100, "btb1_updates_total": 50,
		"btbp_lookups_total": 1000, "btbp_installs_total": 200,
		"btb2_lookups_total": 500, "btb2_installs_total": 300,
		"tracker_rows_read_total": 20_000,
	})
	e := EstimateEnergy(cfg, counts, SRAM, 1_000_000)
	if e.TotalPJ() <= 0 {
		t.Fatal("non-positive energy")
	}
	// Reads touch whole rows; with equal lookup counts the BTB1 (4-way
	// SRAM rows) must cost more read energy than zero and the BTB2 reads
	// must be non-zero.
	if e.BTB1ReadPJ <= 0 || e.BTB2ReadPJ <= 0 {
		t.Error("missing read energy components")
	}
	// Without a BTB2, its energy is zero.
	e2 := EstimateEnergy(core.OneLevelConfig(), counts, SRAM, 1_000_000)
	if e2.BTB2ReadPJ != 0 || e2.BTB2WritePJ != 0 {
		t.Error("BTB2 energy attributed to a one-level config")
	}
	// eDRAM reads cost more per bit.
	e3 := EstimateEnergy(cfg, counts, EDRAM, 1_000_000)
	if e3.BTB2ReadPJ <= e.BTB2ReadPJ {
		t.Error("eDRAM read energy not higher than SRAM")
	}
}

// TestEnergyStory verifies the paper's power argument quantitatively:
// under equal access patterns dominated by first-level searches, the
// two-level design (small BTB1 rows + rarely-read BTB2) burns less read
// energy per search than the big one-level BTB1, whose every search
// reads a 6-way row of a 24k array... the per-row read is what matters.
func TestEnergyStory(t *testing.T) {
	searches := int64(1_000_000)
	// Two-level: searches read BTB1 (4-way) + BTBP (6-way RF); BTB2 read
	// only on transfers (say 2% of searches).
	cycles := float64(searches) // ~one search per cycle
	two := EstimateEnergy(core.DefaultConfig(), counters(map[string]int64{
		"btb1_lookups_total":      searches,
		"btbp_lookups_total":      searches,
		"btb2_lookups_total":      searches / 50,
		"tracker_rows_read_total": searches / 50,
	}), SRAM, cycles)
	// One-level 24k: every search reads a 6-way row of the big array
	// (plus the same BTBP).
	big := EstimateEnergy(core.LargeOneLevelConfig(), counters(map[string]int64{
		"btb1_lookups_total": searches,
		"btbp_lookups_total": searches,
	}), SRAM, cycles)
	// Array-size-dependent access energy makes every-search reads of the
	// 24k array dominate: the two-level hierarchy reads less total
	// energy despite its occasional BTB2 bursts — the paper's
	// "minimal impact on ... power" claim.
	if two.TotalPJ() >= big.TotalPJ() {
		t.Errorf("two-level energy %.0f pJ >= big one-level %.0f pJ",
			two.TotalPJ(), big.TotalPJ())
	}
}

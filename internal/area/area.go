// Package area models silicon area and access energy for the predictor
// structures, supporting the paper's Section 6 analysis: "Through
// optimal technology usage, the multi-level BTB design will support a
// greater number of predictions per square millimeter than a single
// level BTB designed solely in SRAM. Understanding the trade-offs
// between SRAM and eDRAM may be analyzed for defining an optimal design
// point which consists of SRAM for the BTB1 and eDRAM for the BTB2."
//
// The constants are engineering estimates for a 32 nm-class SOI process
// (the zEC12's node): they are meant for *relative* comparisons between
// design points — exactly how the paper uses the argument — not for
// absolute die-size claims.
package area

import (
	"fmt"
	"math"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/core"
	"bulkpreload/internal/obs"
)

// Technology describes a memory implementation technology.
type Technology struct {
	Name string
	// BitAreaUm2 is the storage cell area per bit in square micrometres.
	BitAreaUm2 float64
	// ReadEnergyPJPerBit / WriteEnergyPJPerBit are dynamic access
	// energies per bit touched.
	ReadEnergyPJPerBit  float64
	WriteEnergyPJPerBit float64
	// Overhead multiplies the raw cell array for decoders, sense
	// amplifiers, comparators and wiring.
	Overhead float64
	// LeakPJPerMm2Cycle is static (leakage + refresh) energy per mm^2
	// per cycle while the array is powered. Calibrated to ~0.3 W/mm^2
	// leakage density for a 32 nm-class high-performance process at
	// 5.5 GHz (~50 pJ/mm^2/cycle for SRAM). SRAM 6T cells leak
	// continuously; deep-trench eDRAM leaks far less but pays refresh.
	LeakPJPerMm2Cycle float64
}

// Technology estimates for a 32 nm-class process.
var (
	// SRAM is the 6T cell the first level and the shipping BTB2 use.
	SRAM = Technology{Name: "SRAM", BitAreaUm2: 0.17, ReadEnergyPJPerBit: 0.012,
		WriteEnergyPJPerBit: 0.015, Overhead: 1.45, LeakPJPerMm2Cycle: 50}
	// EDRAM is IBM's deep-trench embedded DRAM: ~3-4x denser than SRAM
	// with somewhat higher access energy and latency — the Section 6
	// candidate for the BTB2.
	EDRAM = Technology{Name: "eDRAM", BitAreaUm2: 0.045, ReadEnergyPJPerBit: 0.020,
		WriteEnergyPJPerBit: 0.024, Overhead: 1.70, LeakPJPerMm2Cycle: 8}
	// RegisterFile is the multi-ported array the BTBP is built from
	// ("implemented as a register file with multiple write ports").
	RegisterFile = Technology{Name: "register file", BitAreaUm2: 0.60,
		ReadEnergyPJPerBit: 0.010, WriteEnergyPJPerBit: 0.010, Overhead: 1.30,
		LeakPJPerMm2Cycle: 60}
)

// Validate checks a technology description.
func (t Technology) Validate() error {
	if t.BitAreaUm2 <= 0 || t.ReadEnergyPJPerBit <= 0 || t.WriteEnergyPJPerBit <= 0 ||
		t.Overhead < 1 || t.LeakPJPerMm2Cycle < 0 {
		return fmt.Errorf("area: implausible technology %+v", t)
	}
	return nil
}

// Entry field widths in bits. Hardware BTBs store partial tags and
// compressed targets; these widths follow common practice for the
// paper's era and are documented assumptions, not zEC12 disclosures.
const (
	ValidBits   = 1
	DefaultTag  = 16 // partial tag compared above the index
	OffsetBase  = 4  // in-line halfword offset for a 32-byte row
	TargetBits  = 31 // target within the current 4 GB region, halfword
	DirBits     = 2  // bimodal state
	ControlBits = 2  // UsePHT + UseCTB
	LengthBits  = 2  // instruction length code
)

// EntryBits returns the bits one BTB entry occupies under the given
// geometry: wider rows need more in-line offset bits; configs with an
// explicit TagBits store that many tag bits, others the default partial
// tag.
func EntryBits(cfg btb.Config) int {
	tag := int(cfg.TagBits)
	if tag == 0 {
		tag = DefaultTag
	}
	offset := OffsetBase
	for lb := cfg.LineBytes(); lb > 32; lb >>= 1 {
		offset++
	}
	return ValidBits + tag + offset + TargetBits + DirBits + ControlBits + LengthBits
}

// Structure is one analyzed array.
type Structure struct {
	Name     string
	Tech     string
	Entries  int
	BitsEach int
	AreaMm2  float64
}

// Report is the area analysis of one hierarchy configuration.
type Report struct {
	Structures []Structure
	TotalMm2   float64
	// Capacity is the total branch entries across BTB levels.
	Capacity int
	// PredictionsPerMm2 is the paper's Section 6 figure of merit.
	PredictionsPerMm2 float64
}

// structArea computes mm^2 for an array.
func structArea(entries, bits int, t Technology) float64 {
	return float64(entries) * float64(bits) * t.BitAreaUm2 * t.Overhead / 1e6
}

// Analyze computes the area report for a hierarchy configuration with
// the given BTB2 technology (the BTB1 is always SRAM and the BTBP a
// register file, as shipped).
func Analyze(cfg core.Config, btb2Tech Technology) Report {
	if err := btb2Tech.Validate(); err != nil {
		panic(err)
	}
	var r Report
	add := func(name string, entries, bits int, t Technology) {
		s := Structure{Name: name, Tech: t.Name, Entries: entries, BitsEach: bits,
			AreaMm2: structArea(entries, bits, t)}
		r.Structures = append(r.Structures, s)
		r.TotalMm2 += s.AreaMm2
	}
	add("BTB1", cfg.BTB1.Capacity(), EntryBits(cfg.BTB1), SRAM)
	add("BTBP", cfg.BTBP.Capacity(), EntryBits(cfg.BTBP), RegisterFile)
	r.Capacity = cfg.BTB1.Capacity() + cfg.BTBP.Capacity()
	if cfg.BTB2Enabled {
		add("BTB2", cfg.BTB2.Capacity(), EntryBits(cfg.BTB2), btb2Tech)
		r.Capacity += cfg.BTB2.Capacity()
	}
	if r.TotalMm2 > 0 {
		r.PredictionsPerMm2 = float64(r.Capacity) / r.TotalMm2
	}
	return r
}

// Energy is the energy accounting of one simulation run: dynamic access
// energy per structure plus static (leakage/refresh) energy. The BTB2's
// static term is scaled by its duty cycle — "the second level predictor
// is only powered up and accessed when content is perceived as missing"
// — while the always-on first level (and a hypothetical large one-level
// BTB1) leaks for the whole run.
type Energy struct {
	BTB1ReadPJ  float64
	BTB1WritePJ float64
	BTBPReadPJ  float64
	BTBPWritePJ float64
	BTB2ReadPJ  float64
	BTB2WritePJ float64

	BTB1LeakPJ float64
	BTBPLeakPJ float64
	BTB2LeakPJ float64
}

// DynamicPJ returns the summed dynamic access energy.
func (e Energy) DynamicPJ() float64 {
	return e.BTB1ReadPJ + e.BTB1WritePJ + e.BTBPReadPJ + e.BTBPWritePJ +
		e.BTB2ReadPJ + e.BTB2WritePJ
}

// StaticPJ returns the summed leakage/refresh energy.
func (e Energy) StaticPJ() float64 { return e.BTB1LeakPJ + e.BTBPLeakPJ + e.BTB2LeakPJ }

// TotalPJ returns dynamic plus static energy.
func (e Energy) TotalPJ() float64 { return e.DynamicPJ() + e.StaticPJ() }

// arrayFactor scales per-bit access energy with array capacity: wire
// (bitline/wordline) capacitance grows roughly with the square root of
// the array's bit count. Normalized to a 64 Kbit reference array. This
// is what makes every-cycle searches of a 24k-entry SRAM BTB1 cost more
// than searches of the 4k BTB1 — the power half of the paper's
// "bigger is better, but latency/area/power limit designers" framing.
func arrayFactor(c btb.Config) float64 {
	bits := float64(c.Capacity() * EntryBits(c))
	const refBits = 64 * 1024
	f := math.Sqrt(bits / refBits)
	if f < 1 {
		return 1
	}
	return f
}

// EstimateEnergy converts a run's final metrics into total energy over
// totalCycles machine cycles. It reads each table's
// "<table>_lookups_total", "_installs_total" and "_updates_total" for
// btb1, btbp and btb2. A read touches all ways of a row (a full
// congruence-class access); a write touches one entry; per-bit energies
// scale with array size via arrayFactor. The BTB2 is powered one cycle
// per row read ("tracker_rows_read_total", its search port busy); the
// first level is powered for the whole run.
func EstimateEnergy(cfg core.Config, m *obs.Snapshot, btb2Tech Technology, totalCycles float64) Energy {
	read := func(table string, c btb.Config, tech Technology) float64 {
		return float64(m.Counter(table+"_lookups_total")) * float64(EntryBits(c)*c.Ways) *
			tech.ReadEnergyPJPerBit * arrayFactor(c)
	}
	write := func(table string, c btb.Config, tech Technology) float64 {
		return float64(m.Counter(table+"_installs_total")+m.Counter(table+"_updates_total")) *
			float64(EntryBits(c)) * tech.WriteEnergyPJPerBit * arrayFactor(c)
	}
	var e Energy
	e.BTB1ReadPJ = read("btb1", cfg.BTB1, SRAM)
	e.BTB1WritePJ = write("btb1", cfg.BTB1, SRAM)
	e.BTBPReadPJ = read("btbp", cfg.BTBP, RegisterFile)
	e.BTBPWritePJ = write("btbp", cfg.BTBP, RegisterFile)
	if cfg.BTB2Enabled {
		e.BTB2ReadPJ = read("btb2", cfg.BTB2, btb2Tech)
		e.BTB2WritePJ = write("btb2", cfg.BTB2, btb2Tech)
	}
	// Static energy: area x leakage density x powered cycles.
	e.BTB1LeakPJ = structArea(cfg.BTB1.Capacity(), EntryBits(cfg.BTB1), SRAM) *
		SRAM.LeakPJPerMm2Cycle * totalCycles
	e.BTBPLeakPJ = structArea(cfg.BTBP.Capacity(), EntryBits(cfg.BTBP), RegisterFile) *
		RegisterFile.LeakPJPerMm2Cycle * totalCycles
	if cfg.BTB2Enabled {
		powered := float64(m.Counter("tracker_rows_read_total"))
		if powered > totalCycles {
			powered = totalCycles
		}
		e.BTB2LeakPJ = structArea(cfg.BTB2.Capacity(), EntryBits(cfg.BTB2), btb2Tech) *
			btb2Tech.LeakPJPerMm2Cycle * powered
	}
	return e
}

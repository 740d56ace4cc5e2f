// Package steering implements the BTB2 search-steering ordering table of
// Section 3.7. When a 4 KB block is bulk-transferred out of the BTB2,
// transferring its 128 rows in plain sequential order wastes cycles on
// code the block's control flow never reaches; the ordering table records
// which 128-byte sectors of each block actually completed instructions,
// and which quartiles the entry (demand) quartile handed control to, and
// uses that to return the likely-useful sectors first.
//
// Geometry from the paper: 512 entries, 2-way set associative, one entry
// per 4 KB block (2 MB reach). Each entry holds, per 1 KB quartile, eight
// 1-bit sector marks and three cross-quartile reference marks.
package steering

import (
	"fmt"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// Default geometry from the paper.
const (
	DefaultEntries = 512
	DefaultWays    = 2
)

// quartileInfo is the per-quartile tracking state: which of its eight
// sectors saw an instruction complete, and which *other* quartiles were
// entered while this quartile was the demand quartile ("three markings to
// denote a reference to the other quartiles").
type quartileInfo struct {
	sectors uint8 // bit s = sector s of this quartile was active
	refs    uint8 // bit q = quartile q referenced from here (self unused)
}

type entry struct {
	valid bool
	tag   uint64
	q     [zaddr.QuartilesPerBlock]quartileInfo
}

// metrics is the ordering table's registry-backed counter set.
type metrics struct {
	lookups  obs.Counter
	hits     obs.Counter
	installs obs.Counter
	merges   obs.Counter
}

// Table is the tagged ordering table plus the live tracking state for the
// block currently being executed.
type Table struct {
	sets  int
	ways  int
	ents  []entry // sets x ways
	order []uint8 // recency per set (rank 0 = MRU)
	met   metrics

	// sectorOrder backs Order's result, so a search launch allocates
	// nothing.
	sectorOrder [zaddr.SectorsPerBlock]int

	// Live tracking (Section 3.7: maintained "as a function of
	// instruction checkpoint" until another block is entered).
	curValid  bool
	curBlock  uint64
	curDemand int // demand quartile of the current visit
	cur       [zaddr.QuartilesPerBlock]quartileInfo
	// curSector is the 128-byte sector of the last observed address,
	// meaningful while curValid.
	curSector uint64
}

// New builds an ordering table with the given total entry count and
// associativity.
func New(entries, ways int) *Table {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("steering: bad geometry %d/%d", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("steering: set count must be a power of two")
	}
	t := &Table{
		sets:  sets,
		ways:  ways,
		ents:  make([]entry, entries),
		order: make([]uint8, entries),
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			t.order[s*ways+w] = uint8(w)
		}
	}
	return t
}

// NewDefault builds the paper's 512-entry 2-way table.
func NewDefault() *Table { return New(DefaultEntries, DefaultWays) }

// RegisterMetrics enumerates the ordering-table counters (plus a computed
// occupancy gauge) into r under the given prefix, e.g. "steering_".
func (t *Table) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"lookups_total", "searches", "ordering lookups at full-search launch", &t.met.lookups)
	r.Counter(prefix+"hits_total", "searches", "lookups finding a recorded ordering", &t.met.hits)
	r.Counter(prefix+"installs_total", "entries", "new ordering entries written at block exit", &t.met.installs)
	r.Counter(prefix+"merges_total", "entries", "block-exit merges into an existing entry", &t.met.merges)
	r.GaugeFunc(prefix+"occupancy_entries", "entries", "valid ordering entries currently resident",
		func() int64 { return int64(t.CountValid()) })
}

// CountValid returns the number of valid ordering entries.
func (t *Table) CountValid() int {
	n := 0
	for i := range t.ents {
		if t.ents[i].valid {
			n++
		}
	}
	return n
}

func (t *Table) setAndTag(block uint64) (int, uint64) {
	return int(block & uint64(t.sets-1)), block >> uint(log2(t.sets))
}

// ObserveComplete feeds one completed instruction address into the live
// tracking state. Crossing into a different 4 KB block flushes the
// accumulated state of the previous block into the tagged array and
// begins a new visit whose entry quartile becomes the demand quartile.
//
// A repeat of the last observed sector returns at once: it would set
// the sector and reference bits it set last time, and nothing but
// ObserveComplete writes the live visit state in between (Reset clears
// curValid, which ends the repeat).
func (t *Table) ObserveComplete(a zaddr.Addr) {
	if sec := uint64(a) / zaddr.SectorBytes; !t.curValid || sec != t.curSector {
		t.observe(a, sec)
	}
}

// observe is ObserveComplete for an address outside the last observed
// sector, kept out of line so the repeat test inlines into callers.
func (t *Table) observe(a zaddr.Addr, sec uint64) {
	t.curSector = sec
	block := zaddr.Block(a)
	q := zaddr.Quartile(a)
	if !t.curValid || block != t.curBlock {
		t.flush()
		t.curValid = true
		t.curBlock = block
		t.curDemand = q
		t.cur = [zaddr.QuartilesPerBlock]quartileInfo{}
		// Returning to a known block: retrieve and continue updating.
		if e := t.find(block); e != nil {
			t.cur = e.q
		}
	}
	// Mark the sector active.
	sector := zaddr.Sector(a)
	within := uint(sector % zaddr.SectorsPerQuartile)
	t.cur[q].sectors |= 1 << within
	// Entering a quartile other than the demand quartile marks the
	// reference bit in the demand quartile.
	if q != t.curDemand {
		t.cur[t.curDemand].refs |= 1 << uint(q)
	}
}

// flush stores the live visit state into the tagged array.
func (t *Table) flush() {
	if !t.curValid {
		return
	}
	block := t.curBlock
	if e := t.find(block); e != nil {
		for i := range e.q {
			e.q[i].sectors |= t.cur[i].sectors
			e.q[i].refs |= t.cur[i].refs
		}
		t.met.merges.Inc()
		t.touch(block)
		return
	}
	set, tag := t.setAndTag(block)
	base := set * t.ways
	way := -1
	for w := 0; w < t.ways; w++ {
		if !t.ents[base+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = int(t.order[base+t.ways-1]) // LRU
	}
	t.ents[base+way] = entry{valid: true, tag: tag, q: t.cur}
	t.met.installs.Inc()
	t.promote(set, way)
}

func (t *Table) find(block uint64) *entry {
	set, tag := t.setAndTag(block)
	base := set * t.ways
	for w := 0; w < t.ways; w++ {
		e := &t.ents[base+w]
		if e.valid && e.tag == tag {
			return e
		}
	}
	return nil
}

func (t *Table) touch(block uint64) {
	set, tag := t.setAndTag(block)
	base := set * t.ways
	for w := 0; w < t.ways; w++ {
		if e := &t.ents[base+w]; e.valid && e.tag == tag {
			t.promote(set, w)
			return
		}
	}
}

func (t *Table) promote(set, w int) {
	base := set * t.ways
	ord := t.order[base : base+t.ways]
	pos := 0
	for ; pos < len(ord); pos++ {
		if int(ord[pos]) == w {
			break
		}
	}
	copy(ord[1:pos+1], ord[0:pos])
	ord[0] = uint8(w)
}

// snapshotFor returns the stored quartile info for block, folding in the
// live state if the block is the one currently being tracked.
func (t *Table) snapshotFor(block uint64) ([zaddr.QuartilesPerBlock]quartileInfo, bool) {
	var q [zaddr.QuartilesPerBlock]quartileInfo
	found := false
	if e := t.find(block); e != nil {
		q = e.q
		found = true
	}
	if t.curValid && t.curBlock == block {
		for i := range q {
			q[i].sectors |= t.cur[i].sectors
			q[i].refs |= t.cur[i].refs
		}
		found = true
	}
	return q, found
}

// Order computes the sector transfer order for a BTB2 bulk search of the
// block containing entryAddr, entered at entryAddr. The returned slice is
// a permutation of the 32 sector indices, owned by the table and
// overwritten by the next Order call. On a table hit the paper's
// priority applies:
//
//  1. active sectors of the demand quartile,
//  2. active sectors of quartiles referenced from the demand quartile,
//  3. all remaining active sectors,
//  4. the same three classes again for inactive sectors.
//
// On a miss, sectors are returned sequentially beginning with the demand
// quartile (wrapping around the block). Within every class, sectors are
// visited starting from the entry sector's position and wrapping, so the
// code about to execute is transferred soonest.
func (t *Table) Order(entryAddr zaddr.Addr) []int {
	t.met.lookups.Inc()
	block := zaddr.Block(entryAddr)
	demand := zaddr.Quartile(entryAddr)
	entrySector := zaddr.Sector(entryAddr)
	out := t.sectorOrder[:0]
	q, ok := t.snapshotFor(block)
	if !ok {
		// Sequential from the demand quartile's entry point.
		for i := 0; i < zaddr.SectorsPerBlock; i++ {
			out = append(out, (entrySector+i)%zaddr.SectorsPerBlock)
		}
		return out
	}
	t.met.hits.Inc()

	// class[s] is sector s's priority class 0..5: inactive sectors come
	// three classes after active ones; within each half, the demand
	// quartile first, then quartiles it referenced, then the rest.
	var class [zaddr.SectorsPerBlock]int
	for s := range class {
		qi := zaddr.SectorQuartile(s)
		if q[qi].sectors&(1<<uint(s%zaddr.SectorsPerQuartile)) == 0 {
			class[s] = 3
		}
		switch {
		case qi == demand:
		case q[demand].refs&(1<<uint(qi)) != 0:
			class[s]++
		default:
			class[s] += 2
		}
	}
	for c := 0; c < 6; c++ {
		for i := 0; i < zaddr.SectorsPerBlock; i++ {
			s := (entrySector + i) % zaddr.SectorsPerBlock
			if class[s] == c {
				out = append(out, s)
			}
		}
	}
	return out
}

// Reset clears the table and the live tracking state.
func (t *Table) Reset() {
	for i := range t.ents {
		t.ents[i] = entry{}
	}
	for s := 0; s < t.sets; s++ {
		for w := 0; w < t.ways; w++ {
			t.order[s*t.ways+w] = uint8(w)
		}
	}
	t.curValid = false
	t.met = metrics{}
}

func log2(n int) int {
	w := 0
	for n > 1 {
		n >>= 1
		w++
	}
	return w
}

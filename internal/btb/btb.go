// Package btb implements the tagged set-associative branch target buffer
// array used for all three levels of the zEC12 hierarchy (BTB1, BTBP,
// BTB2). The three levels differ only in geometry (rows, ways, index bit
// range) and in how the surrounding logic manipulates LRU state, so a
// single Table type serves all of them.
//
// A row normally covers 32 bytes of instruction space; an entry
// identifies one branch by the line it lives in (index + tag) plus its
// byte offset within the line. The paper's future-work section proposes
// widening the BTB2's congruence class to 64 or 128 bytes to raise
// tag-matching branches per search, so row coverage is derived from the
// index bit range rather than fixed: IndexLo 58 gives 32-byte rows, 57
// gives 64, 56 gives 128. Tags may be truncated (TagBits) to model the
// aliasing of partial-tag hardware designs; TagBits = 0 means full tags.
//
// # Storage
//
// A table is a structure-of-arrays of bit-packed uint64 lanes (see
// packed.go): one tag word per slot carrying valid|offset|tag, one raw
// target word, a 16-bit metadata field (dir|usePHT|useCTB|length)
// packed four to a word, and one LRU word per row holding the whole
// recency order as 4-bit ranks — a row scan is a handful of masked
// word compares and an LRU update is a shift, the way hardware and
// constant-driven simulators store this state. The tests judge it
// against an array-of-structs reference model (model_test.go);
// docs/PERFORMANCE.md documents the word formats.
package btb

import (
	"fmt"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// Entry is one branch's prediction record. The paper: "each BTB1 entry
// contains a 2-bit bimodal Branch History Table (BHT) direction
// prediction and a target address used for predicted taken branches",
// plus control bits gating PHT/CTB use for that branch. BTBP and BTB2
// entries hold the same content.
type Entry struct {
	Valid  bool
	Addr   zaddr.Addr  // full branch instruction address
	Target zaddr.Addr  // predicted target when taken
	Dir    bht.Bimodal // bimodal direction state
	// UsePHT marks branches that have shown multiple directions; the PHT
	// overrides the bimodal direction for them.
	UsePHT bool
	// UseCTB marks branches that have shown multiple targets; the CTB
	// overrides the stored target for them.
	UseCTB bool
	// Length of the branch instruction in bytes, kept so predictions can
	// compute the not-taken fall-through address.
	Length uint8
}

// MaxWays bounds the associativity: the packed layout keeps a whole
// row's recency order in one uint64 as 4-bit ranks, so a row can hold
// at most 16 ways (the paper's widest table uses 6).
const MaxWays = 16

// Config fixes a table's geometry.
type Config struct {
	Name    string // for diagnostics: "BTB1", "BTBP", "BTB2"
	Rows    int    // number of congruence classes; power of two
	Ways    int    // set associativity
	IndexHi uint   // big-endian high bit of the index range
	IndexLo uint   // big-endian low bit of the index range (inclusive)
	// TagBits is the number of address bits immediately above the index
	// that are compared on lookup. 0 compares all bits above the index
	// (exact, alias-free tagging).
	TagBits uint
}

// Validate checks that the geometry is self-consistent: the index range
// must address exactly Rows rows, and the row coverage implied by
// IndexLo must be a sane line size (the paper ships 32-byte rows and
// studies 64/128-byte BTB2 rows as future work).
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Rows&(c.Rows-1) != 0 {
		return fmt.Errorf("btb %s: rows %d not a positive power of two", c.Name, c.Rows)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("btb %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.Ways > MaxWays {
		return fmt.Errorf("btb %s: ways %d exceeds %d (a packed LRU word holds one 4-bit rank per way)",
			c.Name, c.Ways, MaxWays)
	}
	if c.IndexHi > c.IndexLo || c.IndexLo > 63 {
		return fmt.Errorf("btb %s: invalid index bit range %d:%d", c.Name, c.IndexHi, c.IndexLo)
	}
	width := c.IndexLo - c.IndexHi + 1
	if 1<<width != c.Rows {
		return fmt.Errorf("btb %s: index bits %d:%d address %d rows, config says %d",
			c.Name, c.IndexHi, c.IndexLo, 1<<width, c.Rows)
	}
	if lb := c.LineBytes(); lb < zaddr.RowBytes || lb > zaddr.SectorBytes {
		return fmt.Errorf("btb %s: index low bit %d implies %d-byte rows, want %d..%d",
			c.Name, c.IndexLo, lb, zaddr.RowBytes, zaddr.SectorBytes)
	}
	return nil
}

// LineBytes returns the instruction bytes covered by one row, implied by
// the index bit range (bits below IndexLo are the in-line offset).
func (c Config) LineBytes() int { return 1 << (63 - c.IndexLo) }

// Capacity returns the total number of entries.
func (c Config) Capacity() int { return c.Rows * c.Ways }

// Paper geometries (Section 3.1 / Table 3).
var (
	// BTB1Config is the 4k-branch first level: 1k rows x 4 ways, indexed
	// with instruction address bits 49:58.
	BTB1Config = Config{Name: "BTB1", Rows: 1024, Ways: 4, IndexHi: 49, IndexLo: 58}
	// BTBPConfig is the 768-branch preload table: 128 rows x 6 ways,
	// indexed with bits 52:58.
	BTBPConfig = Config{Name: "BTBP", Rows: 128, Ways: 6, IndexHi: 52, IndexLo: 58}
	// BTB2Config is the 24k-branch second level: 4k rows x 6 ways,
	// indexed with bits 47:58.
	BTB2Config = Config{Name: "BTB2", Rows: 4096, Ways: 6, IndexHi: 47, IndexLo: 58}
	// LargeBTB1Config is Table 3 configuration 3: the "unrealistically
	// large" 24k one-level BTB1 (4k rows x 6 ways).
	LargeBTB1Config = Config{Name: "BTB1-24k", Rows: 4096, Ways: 6, IndexHi: 47, IndexLo: 58}
)

// metrics is the table's registry-backed counter set.
type metrics struct {
	lookups  obs.Counter
	lineHits obs.Counter
	installs obs.Counter
	updates  obs.Counter
	evicts   obs.Counter
}

// Table is a set-associative tagged BTB.
type Table struct {
	cfg Config

	// Packed structure-of-arrays lanes. See packed.go for the word
	// formats.
	tags    []uint64 // per slot: valid | in-line offset | tag
	targets []uint64 // per slot: raw target address
	meta    []uint64 // four 16-bit dir/usePHT/useCTB/length fields per word
	lru     []uint64 // per row: recency order, 4-bit way per rank (rank 0 = MRU)

	// Precomputed packed-geometry constants (see packed.go).
	offBits   uint        // in-line offset width: 63 - IndexLo
	tagShift  uint        // tag field's shift within the tag word: 1 + offBits
	hiBits    uint        // address bits above the index: IndexHi
	tagIn     uint        // shift bringing address bits 0..IndexHi-1 to bit 0: 64 - hiBits
	index     zaddr.Field // address bits IndexHi..IndexLo: the row
	lineBytes uint64      // LineBytes() as uint64
	entryMask uint64      // valid + compared tag bits + offset
	lineMask  uint64      // valid + compared tag bits
	initLRU   uint64      // reset recency order: way k at rank k

	// inj, when non-nil, strikes soft errors on valid-entry reads; nil
	// (the default) is the zero-cost disabled state. See fault.go.
	inj *fault.Injector
	met metrics

	lineBuf [MaxWays]Slot // LookupLine's copy of the row it decodes
}

// New builds an empty table; it panics if cfg is invalid (geometry is a
// programming error, not an input error).
func New(cfg Config) *Table {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Table{
		cfg:       cfg,
		offBits:   63 - cfg.IndexLo,
		hiBits:    cfg.IndexHi,
		tagIn:     64 - cfg.IndexHi,
		index:     zaddr.NewField(cfg.IndexHi, cfg.IndexLo),
		lineBytes: uint64(cfg.LineBytes()),
	}
	t.tagShift = 1 + t.offBits
	cmp := t.hiBits
	if cfg.TagBits != 0 && cfg.TagBits <= t.hiBits {
		cmp = cfg.TagBits
	}
	t.lineMask = 1
	if cmp > 0 {
		t.lineMask |= ((uint64(1) << cmp) - 1) << t.tagShift
	}
	t.entryMask = t.lineMask | ((uint64(1)<<t.offBits)-1)<<1
	for w := 0; w < cfg.Ways; w++ {
		t.initLRU |= uint64(w) << (4 * uint(w))
	}
	n := cfg.Rows * cfg.Ways
	t.tags = make([]uint64, n)
	t.targets = make([]uint64, n)
	t.meta = make([]uint64, (n+3)/4)
	t.lru = make([]uint64, cfg.Rows)
	for row := range t.lru {
		t.lru[row] = t.initLRU
	}
	return t
}

// RegisterMetrics enumerates the table's counters (plus a computed
// occupancy gauge) into r under the given prefix, e.g. "btb1_".
func (t *Table) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"lookups_total", "searches", "congruence-class reads", &t.met.lookups)
	r.Counter(prefix+"line_hits_total", "searches", "lookups finding at least one matching entry", &t.met.lineHits)
	r.Counter(prefix+"installs_total", "entries", "new entries written", &t.met.installs)
	r.Counter(prefix+"updates_total", "entries", "in-place updates of existing entries", &t.met.updates)
	r.Counter(prefix+"evicts_total", "entries", "valid victims displaced by installs", &t.met.evicts)
	r.GaugeFunc(prefix+"occupancy_entries", "entries", "valid entries currently resident",
		func() int64 { return int64(t.CountValid()) })
}

// RowFor returns the congruence class the address maps to: address
// bits IndexHi..IndexLo, read through the field New validated once
// (zaddr.Bits would re-validate the range on every call).
func (t *Table) RowFor(a zaddr.Addr) int {
	return int(t.index.Of(a))
}

// Hit describes one matching entry found by LookupLine.
type Hit struct {
	Way   int
	MRU   bool // entry is in the most-recently-used way of its row
	Entry Entry
}

// LookupLine returns all valid entries in the row of line whose tags
// match the line, in way order. This models the parallel read of a full
// congruence class performed each search cycle. It is a decode of
// ReadLine's copy of the row, with ReadLine's side effects; the MRU
// flag reflects the row's recency order before the read's strikes.
// The result shares no storage with the table.
func (t *Table) LookupLine(line zaddr.Addr, out []Hit) []Hit {
	mruWay := int(t.lru[t.RowFor(line)] & 0xF)
	for _, s := range t.lineBuf[:t.ReadLine(line, &t.lineBuf)] {
		out = append(out, Hit{Way: s.Way, MRU: s.Way == mruWay, Entry: s.Entry()})
	}
	return out
}

// ReadLine is the raw read of line's congruence class that a BTB2 bulk
// transfer performs: it copies every valid slot whose tag matches the
// line into out, in way order, as lane words that decode nothing, and
// returns how many it copied. The copy is a snapshot: later writes to
// the table do not change it. It counts one lookup, and one line hit
// if any slot matched; with an injector attached, each valid slot is
// struck before its compare (or the row's valid slots are passed in
// one step when no strike is due within them).
func (t *Table) ReadLine(line zaddr.Addr, out *[MaxWays]Slot) int {
	t.met.lookups.Inc()
	row := t.RowFor(line)
	if !t.quiet(t.cfg.Ways) {
		return t.readStruck(row, line, out)
	}
	base := row * t.cfg.Ways
	key := t.packKey(line)
	n, valid := 0, uint64(0)
	for w, k := range t.tags[base : base+t.cfg.Ways] {
		valid += k & 1
		if (k^key)&t.lineMask == 0 {
			a, _ := t.slotAddr(row, k)
			out[n] = Slot{Addr: a, Target: t.targets[base+w], Meta: t.metaField(base + w), Way: w}
			n++
		}
	}
	t.inj.Pass(valid)
	if n > 0 {
		t.met.lineHits.Inc()
	}
	return n
}

// readStruck is ReadLine with a strike due within the row: each valid
// slot is struck before its compare.
func (t *Table) readStruck(row int, line zaddr.Addr, out *[MaxWays]Slot) int {
	base := row * t.cfg.Ways
	key := t.packKey(line)
	n := 0
	for w := 0; w < t.cfg.Ways; w++ {
		if t.tags[base+w]&1 == 0 {
			continue
		}
		if bits, ok := t.inj.Strike(); ok {
			t.strikeSlot(row, w, bits)
		}
		// A parity recovery (or tag upset) clears the slot, and a
		// cleared tag word never matches the key's valid bit.
		if (t.tags[base+w]^key)&t.lineMask == 0 {
			out[n] = t.readSlot(row, w)
			n++
		}
	}
	if n > 0 {
		t.met.lineHits.Inc()
	}
	return n
}

// CountFrom returns how many valid entries in the row of a match a's
// line and sit at or after a's offset within its 32-byte row — the
// question one search cycle asks of a congruence class. It reads only
// the tag lane and has LookupLine's side effects: one lookup, one line
// hit if any entry matches the line (at any offset), and one fault
// strike per valid entry in way order. The offset compared is
// (k>>1)&(RowBytes-1), which equals zaddr.RowOffset of the entry's
// decoded address because every line is a whole number of rows.
func (t *Table) CountFrom(a zaddr.Addr) int {
	t.met.lookups.Inc()
	row := t.RowFor(a)
	if !t.quiet(t.cfg.Ways) {
		return t.countStruck(row, a)
	}
	key := t.packKey(a)
	off := uint64(zaddr.RowOffset(a))
	n, found, valid := 0, false, uint64(0)
	// The key carries valid=1 and lineMask keeps the valid bit, so an
	// invalid slot never matches.
	for _, k := range t.tags[row*t.cfg.Ways : (row+1)*t.cfg.Ways] {
		valid += k & 1
		if (k^key)&t.lineMask == 0 {
			found = true
			if k>>1&(zaddr.RowBytes-1) >= off {
				n++
			}
		}
	}
	t.inj.Pass(valid)
	if found {
		t.met.lineHits.Inc()
	}
	return n
}

// countStruck is CountFrom with a strike due within the row: each valid
// slot is struck before its compare, as LookupLine strikes it.
func (t *Table) countStruck(row int, a zaddr.Addr) int {
	base := row * t.cfg.Ways
	key := t.packKey(a)
	off := uint64(zaddr.RowOffset(a))
	n, found := 0, false
	for w := 0; w < t.cfg.Ways; w++ {
		if t.tags[base+w]&1 == 0 {
			continue
		}
		if bits, ok := t.inj.Strike(); ok {
			t.strikeSlot(row, w, bits)
		}
		k := t.tags[base+w]
		if k&1 != 0 && (k^key)&t.lineMask == 0 {
			found = true
			if k>>1&(zaddr.RowBytes-1) >= off {
				n++
			}
		}
	}
	if found {
		t.met.lineHits.Inc()
	}
	return n
}

// Probe is the first-level predict read of branch a: it returns a copy
// of a's entry, whether that entry sat in its row's MRU way, and
// whether it was found, and makes a found entry MRU. It counts one
// lookup and one line hit per found entry, and none on a miss. mru
// holds when the first way whose tag word equals a's exactly (full
// tag, not the TagBits-truncated compare) is the MRU way.
//
// With an injector attached, Probe strikes the reads the model has
// always charged a BTB1 prediction, in order: the way scan up to the
// match, then a full-row read for the MRU check (docs/MODEL.md). The
// recency update follows the strikes. That is at most 2*Ways reads.
func (t *Table) Probe(a zaddr.Addr) (e Entry, mru, ok bool) {
	row := t.RowFor(a)
	if !t.quiet(2 * t.cfg.Ways) {
		return t.probeStruck(row, a)
	}
	w, valid := t.matchWay(row, a)
	if w < 0 {
		t.inj.Pass(valid)
		return Entry{}, false, false
	}
	t.met.lookups.Inc()
	t.met.lineHits.Inc()
	// The MRU check reads the whole row.
	key := t.packKey(a)
	exact := -1
	for x, k := range t.tags[row*t.cfg.Ways : (row+1)*t.cfg.Ways] {
		valid += k & 1
		if exact < 0 && k == key {
			exact = x
		}
	}
	t.inj.Pass(valid)
	mru = exact == int(t.lru[row]&0xF)
	t.unpackEntry(row, w, &e)
	t.promoteWay(row, w)
	return e, mru, true
}

// probeStruck is Probe with a strike due within its reads: findWay's
// partial scan, then the full-row MRU read, then the recency update of
// whatever the strikes left matching.
func (t *Table) probeStruck(row int, a zaddr.Addr) (e Entry, mru, ok bool) {
	w := t.findWay(row, a)
	if w < 0 {
		return Entry{}, false, false
	}
	t.unpackEntry(row, w, &e)
	t.met.lookups.Inc()
	base := row * t.cfg.Ways
	key := t.packKey(a)
	mruWay := int(t.lru[row] & 0xF)
	exact, found := -1, false
	for x := 0; x < t.cfg.Ways; x++ {
		if t.tags[base+x]&1 == 0 {
			continue
		}
		if bits, ok := t.inj.Strike(); ok {
			t.strikeSlot(row, x, bits)
		}
		k := t.tags[base+x]
		if k&1 == 0 || (k^key)&t.lineMask != 0 {
			continue
		}
		found = true
		if exact < 0 && k == key {
			exact = x
		}
	}
	if found {
		t.met.lineHits.Inc()
	}
	if w, _ = t.matchWay(row, a); w >= 0 {
		t.promoteWay(row, w)
	}
	return e, exact >= 0 && exact == mruWay, true
}

// Find returns a copy of the entry recognized as branch a, if present.
func (t *Table) Find(a zaddr.Addr) (Entry, bool) {
	row := t.RowFor(a)
	if w := t.findWay(row, a); w >= 0 {
		var e Entry
		t.unpackEntry(row, w, &e)
		return e, true
	}
	return Entry{}, false
}

// findWay scans row for the entry recognized as branch a (striking
// scheduled faults on the valid entries it reads, like the hardware
// read it models) and returns its way, or -1. It reads at most Ways
// valid entries.
func (t *Table) findWay(row int, a zaddr.Addr) int {
	if t.quiet(t.cfg.Ways) {
		w, valid := t.matchWay(row, a)
		t.inj.Pass(valid)
		return w
	}
	base := row * t.cfg.Ways
	key := t.packKey(a)
	for w := 0; w < t.cfg.Ways; w++ {
		if t.tags[base+w]&1 != 0 {
			if bits, ok := t.inj.Strike(); ok {
				t.strikeSlot(row, w, bits)
			}
		}
		if (t.tags[base+w]^key)&t.entryMask == 0 {
			return w
		}
	}
	return -1
}

// Contains reports whether branch a has an entry.
func (t *Table) Contains(a zaddr.Addr) bool {
	return t.findWay(t.RowFor(a), a) >= 0
}

// Update overwrites the existing entry for branch e.Addr in place,
// preserving its recency rank. It reports whether an entry was found.
func (t *Table) Update(e Entry) bool {
	row := t.RowFor(e.Addr)
	w := t.findWay(row, e.Addr)
	if w < 0 {
		return false
	}
	s := SlotOf(e)
	t.writeSlot(row*t.cfg.Ways+w, t.packKey(e.Addr), &s)
	t.met.updates.Inc()
	return true
}

// Insert writes e into the row for e.Addr. If the branch is already
// present it is updated in place and made MRU. Otherwise the entry is
// written over an invalid way if one exists, else over the LRU way, and
// made MRU; the displaced valid entry, if any, is returned as the victim.
func (t *Table) Insert(e Entry) (victim Entry, evicted bool) {
	s := SlotOf(e)
	v, evicted := t.insert(&s)
	if evicted {
		victim = v.Entry()
	}
	return victim, evicted
}

// InsertSlot is Insert in lane form: s's target and meta words are
// copied as-is and the victim comes back undecoded.
func (t *Table) InsertSlot(s Slot) (victim Slot, evicted bool) {
	return t.insert(&s)
}

// Fill is the fused Contains + Insert of a first-level write: it
// installs s unless branch s.Addr is already resident, and reports
// whether it wrote. Its row read strikes faults exactly as Contains
// does; with no strike due it is a single scan of the tag lane that
// also finds the free way. Any valid victim is dropped without being
// decoded.
func (t *Table) Fill(s Slot) bool {
	row := t.RowFor(s.Addr)
	base := row * t.cfg.Ways
	if !t.quiet(t.cfg.Ways) {
		if t.findWay(row, s.Addr) >= 0 {
			return false
		}
		// Strikes never set a tag, so the branch is still absent.
		t.insert(&s)
		return true
	}
	key := t.packKey(s.Addr)
	free, valid := -1, uint64(0)
	for w, k := range t.tags[base : base+t.cfg.Ways] {
		valid += k & 1
		if (k^key)&t.entryMask == 0 {
			t.inj.Pass(valid)
			return false
		}
		if free < 0 && k&1 == 0 {
			free = w
		}
	}
	t.inj.Pass(valid)
	if free < 0 {
		free = t.lruWay(row)
		t.met.evicts.Inc()
	}
	t.writeSlot(base+free, key, &s)
	t.met.installs.Inc()
	t.promoteWay(row, free)
	return true
}

// insert writes s into its row: in place if the branch is present,
// else into the first free way, else over the LRU way, whose valid
// content it returns as the victim.
func (t *Table) insert(s *Slot) (victim Slot, evicted bool) {
	row := t.RowFor(s.Addr)
	base := row * t.cfg.Ways
	key := t.packKey(s.Addr)
	free := -1
	for w, k := range t.tags[base : base+t.cfg.Ways] {
		if (k^key)&t.entryMask == 0 {
			// Already present: in-place update.
			t.writeSlot(base+w, key, s)
			t.met.updates.Inc()
			t.promoteWay(row, w)
			return Slot{}, false
		}
		if free < 0 && k&1 == 0 {
			free = w
		}
	}
	if free < 0 {
		free = t.lruWay(row)
		victim, evicted = t.readSlot(row, free), true
		t.met.evicts.Inc()
	}
	t.writeSlot(base+free, key, s)
	t.met.installs.Inc()
	t.promoteWay(row, free)
	return victim, evicted
}

// lruWay returns the least recently used way of row.
func (t *Table) lruWay(row int) int {
	return int(t.lru[row] >> (4 * uint(t.cfg.Ways-1)) & 0xF)
}

// TouchSlot makes the entry for branch s.Addr most recently used. It
// reports whether the branch was present. s may be a slot ReadLine
// copied: see slotWay.
func (t *Table) TouchSlot(s Slot) bool {
	row, w := t.slotWay(s)
	if w >= 0 {
		t.promoteWay(row, w)
	}
	return w >= 0
}

// DemoteSlot makes the entry for branch s.Addr least recently used. The
// paper's semi-exclusive policy: "When an entry is copied from BTB2 to
// BTBP, it is made LRU in the BTB2", so subsequent victims/installs
// replace it. s may be a slot ReadLine copied: see slotWay.
func (t *Table) DemoteSlot(s Slot) bool {
	row, w := t.slotWay(s)
	if w >= 0 {
		t.demoteWay(row, w)
	}
	return w >= 0
}

// Invalidate removes the entry for branch a, reporting whether it was
// present. The removed way becomes LRU.
func (t *Table) Invalidate(a zaddr.Addr) bool { return t.InvalidateSlot(Slot{Addr: a, Way: -1}) }

// InvalidateSlot is Invalidate for a slot ReadLine copied: see slotWay.
func (t *Table) InvalidateSlot(s Slot) bool {
	row, w := t.slotWay(s)
	if w >= 0 {
		t.clearSlot(row*t.cfg.Ways + w)
		t.demoteWay(row, w)
	}
	return w >= 0
}

// slotWay returns the row and way holding branch s.Addr, or way -1. A
// ReadLine slot names the way it was read from; while that way's tag
// word still matches the branch it is the answer without a scan (a row
// never holds a branch twice, and strikes never rewrite a tag). Once
// the way was rewritten between the read and the update, or when s.Way
// names no way, the row is scanned. Like matchWay it is not an array
// read in the fault model.
func (t *Table) slotWay(s Slot) (row, w int) {
	row = t.RowFor(s.Addr)
	if uint(s.Way) < uint(t.cfg.Ways) && (t.tags[row*t.cfg.Ways+s.Way]^t.packKey(s.Addr))&t.entryMask == 0 {
		return row, s.Way
	}
	w, _ = t.matchWay(row, s.Addr)
	return row, w
}

// matchWay scans row for the entry recognized as branch a without
// striking faults and returns its way, or -1, with the number of valid
// slots the scan read: those up to and including the match, or the
// whole row on a miss. findWay and Probe pass that count to the
// injector; the write paths TouchSlot, DemoteSlot and InvalidateSlot
// are not array reads in the fault model and ignore it.
func (t *Table) matchWay(row int, a zaddr.Addr) (int, uint64) {
	base := row * t.cfg.Ways
	key := t.packKey(a)
	valid := uint64(0)
	for w, k := range t.tags[base : base+t.cfg.Ways] {
		valid += k & 1
		if (k^key)&t.entryMask == 0 {
			return w, valid
		}
	}
	return -1, valid
}

// CountValid returns the number of valid entries in the whole table.
func (t *Table) CountValid() int {
	n := 0
	for i := range t.tags {
		if t.tags[i]&1 != 0 {
			n++
		}
	}
	return n
}

// Reset invalidates every entry and restores initial LRU order.
func (t *Table) Reset() {
	clear(t.tags)
	clear(t.targets)
	clear(t.meta)
	for row := range t.lru {
		t.lru[row] = t.initLRU
	}
	t.met = metrics{}
}

// checkLRUInvariant verifies that each row's recency order is a
// permutation of its ways. Exposed for tests via export_test.go.
func (t *Table) checkLRUInvariant() error {
	for row := 0; row < t.cfg.Rows; row++ {
		if err := t.lruWordErr(t.lru[row]); err != nil {
			return fmt.Errorf("btb %s row %d: %w", t.cfg.Name, row, err)
		}
	}
	return nil
}

// lruWordErr reports why word is not a row's recency order: every rank
// must hold a distinct way below Ways, and no bits may sit above the
// last rank.
func (t *Table) lruWordErr(word uint64) error {
	var seen uint64
	for k := 0; k < t.cfg.Ways; k++ {
		w := word >> (4 * uint(k)) & 0xF
		if int(w) >= t.cfg.Ways {
			return fmt.Errorf("rank %d holds invalid way %d", k, w)
		}
		if seen&(1<<w) != 0 {
			return fmt.Errorf("way %d appears twice in LRU order", w)
		}
		seen |= 1 << w
	}
	if t.cfg.Ways < MaxWays && word>>(4*uint(t.cfg.Ways)) != 0 {
		return fmt.Errorf("LRU word %#x has bits above rank %d", word, t.cfg.Ways-1)
	}
	return nil
}

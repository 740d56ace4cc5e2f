// Package pht implements the tagged Pattern History Table of the zEC12
// first-level branch predictor: 4,096 entries indexed by the direction of
// the 12 previous predicted branches and the addresses of the 6 previous
// taken branches, tagged with branch instruction address bits. It
// overrides the per-entry bimodal direction for branches the BTB marks
// UsePHT (branches exhibiting multiple directions) — the same family as
// the tagged ppm-like predictors of Michaud.
//
// The table packs each entry into a 13-bit field (valid | 10-bit tag |
// 2-bit direction) stored 16 bits wide, four per uint64 word. The tests
// judge it against an entry-struct reference model (layout_test.go).
package pht

import (
	"fmt"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/history"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// DefaultEntries is the zEC12 PHT size.
const DefaultEntries = 4096

// tagBits is the number of branch-address bits stored as tag per entry.
const tagBits = 10

// Packed 16-bit field layout (four fields per uint64 word): bit 0 is
// valid, bits 1..10 the tag, bits 11..12 the 2-bit direction counter.
// These constants are the layout's one statement. TestLayoutSweep
// (layout_test.go) checks both levels against them: the 16-bit
// field's contents, and the four-fields-per-word striding of the
// uint64 lane.
const (
	fieldValidBit = 0
	fieldTagShift = 1
	fieldDirShift = fieldTagShift + tagBits
	fieldBits     = 16
)

// metrics is the PHT's registry-backed counter set.
type metrics struct {
	lookups  obs.Counter
	hits     obs.Counter
	installs obs.Counter
	updates  obs.Counter
}

// Table is the pattern history table.
type Table struct {
	n     int             // entry count
	words []uint64        // packed fields, four entries per word
	inj   *fault.Injector // soft-error injection on Lookup; nil = off
	met   metrics
}

// SetInjector attaches (or, with nil, detaches) a fault injector.
func (t *Table) SetInjector(j *fault.Injector) { t.inj = j }

// Injector returns the attached injector (nil when faults are off).
func (t *Table) Injector() *fault.Injector { return t.inj }

// New builds a PHT with the given entry count (power of two).
func New(entries int) *Table {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("pht: entries must be a positive power of two")
	}
	return &Table{n: entries, words: make([]uint64, (entries+3)/4)}
}

// field returns entry i's packed 16-bit field.
func (t *Table) field(i int) uint64 {
	return t.words[i>>2] >> (uint(i&3) * fieldBits) & 0xFFFF
}

// setField overwrites entry i's packed field with v, masked to the
// entry width so a wide value can never smear into the neighboring
// entries.
func (t *Table) setField(i int, v uint64) {
	sh := uint(i&3) * fieldBits
	t.words[i>>2] = t.words[i>>2]&^(uint64(0xFFFF)<<sh) | (v&0xFFFF)<<sh
}

// packField builds the packed field for a valid entry.
func packField(tag uint16, dir bht.Bimodal) uint64 {
	return 1<<fieldValidBit |
		uint64(tag&((1<<tagBits)-1))<<fieldTagShift |
		uint64(dir&3)<<fieldDirShift
}

// RegisterMetrics enumerates the PHT counters (plus a computed occupancy
// gauge) into r under the given prefix, e.g. "pht_".
func (t *Table) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"lookups_total", "lookups", "pattern-history direction lookups", &t.met.lookups)
	r.Counter(prefix+"hits_total", "lookups", "lookups with a valid tag match", &t.met.hits)
	r.Counter(prefix+"installs_total", "entries", "new entries written", &t.met.installs)
	r.Counter(prefix+"updates_total", "entries", "in-place direction retrains", &t.met.updates)
	r.GaugeFunc(prefix+"occupancy_entries", "entries", "valid entries currently resident",
		func() int64 { return int64(t.CountValid()) })
}

// CountValid returns the number of valid entries.
func (t *Table) CountValid() int {
	n := 0
	for i := 0; i < t.n; i++ {
		if t.field(i)&(1<<fieldValidBit) != 0 {
			n++
		}
	}
	return n
}

func tagOf(a zaddr.Addr) uint16 {
	return uint16(zaddr.Halfword(a) & ((1 << tagBits) - 1))
}

// Lookup returns the PHT's direction for the branch at addr under the
// given path history. ok is false on a tag mismatch or invalid entry, in
// which case the caller falls back to the BTB's bimodal direction.
func (t *Table) Lookup(h *history.History, addr zaddr.Addr) (taken bool, ok bool) {
	t.met.lookups.Inc()
	i := h.PHTIndex(addr, t.n)
	f := t.field(i)
	if t.inj != nil && f&(1<<fieldValidBit) != 0 {
		if bits, ok := t.inj.Strike(); ok {
			t.strikeEntry(i, bits)
			f = t.field(i)
		}
	}
	if f&(1<<fieldValidBit) == 0 || uint16(f>>fieldTagShift)&((1<<tagBits)-1) != tagOf(addr) {
		return false, false
	}
	t.met.hits.Inc()
	return bht.Bimodal(f >> fieldDirShift & 3).Taken(), true
}

// strikeEntry lands a fault the injector struck on the entry being
// read, using the strike's random bits. The flip domain is the stored
// payload: 10 tag bits and then the 2-bit direction counter. Parity
// recovers by invalidation; unprotected flips persist (a flipped tag
// silently redirects the entry to an aliasing branch).
func (t *Table) strikeEntry(i int, bits uint64) {
	if t.inj.Parity() {
		t.setField(i, 0)
		t.inj.NoteRecovered()
		return
	}
	if b := bits % (tagBits + 2); b < tagBits {
		t.setField(i, t.field(i)^1<<(fieldTagShift+b))
	} else {
		t.setField(i, t.field(i)^1<<(fieldDirShift+(b-tagBits)))
	}
	t.inj.NoteSilent()
}

// Update trains the entry for the branch at addr with a resolved
// direction. On tag mismatch the entry is stolen (retagged and
// re-initialized) — small tagged predictors reallocate on miss.
func (t *Table) Update(h *history.History, addr zaddr.Addr, taken bool) {
	i := h.PHTIndex(addr, t.n)
	tag := tagOf(addr)
	f := t.field(i)
	if f&(1<<fieldValidBit) != 0 && uint16(f>>fieldTagShift)&((1<<tagBits)-1) == tag {
		dir := bht.Bimodal(f >> fieldDirShift & 3).Update(taken)
		t.setField(i, packField(tag, dir))
		t.met.updates.Inc()
		return
	}
	t.setField(i, packField(tag, bht.Init(taken)))
	t.met.installs.Inc()
}

// Reset invalidates every entry.
func (t *Table) Reset() {
	clear(t.words)
	t.met = metrics{}
}

// EntryState is the serializable mirror of one PHT entry.
type EntryState struct {
	Valid bool
	Tag   uint16
	Dir   bht.Bimodal
}

// State is a serializable copy of the table's architectural contents.
type State struct{ Entries []EntryState }

// State returns a deep copy of the table's architectural state.
func (t *Table) State() State {
	s := State{Entries: make([]EntryState, t.n)}
	for i := 0; i < t.n; i++ {
		f := t.field(i)
		if f&(1<<fieldValidBit) == 0 {
			continue // invalid entries serialize as the zero EntryState
		}
		s.Entries[i] = EntryState{
			Valid: true,
			Tag:   uint16(f>>fieldTagShift) & ((1 << tagBits) - 1),
			Dir:   bht.Bimodal(f >> fieldDirShift & 3),
		}
	}
	return s
}

// RestoreState overwrites the table's contents with s, which must come
// from a table of identical size. Invalid entries restore empty. A valid
// entry whose tag or direction is wider than its packed field is
// rejected as corrupt rather than truncated into a different entry, and
// a rejected state leaves the table untouched.
func (t *Table) RestoreState(s State) error {
	if len(s.Entries) != t.n {
		return fmt.Errorf("pht: state has %d entries, table has %d", len(s.Entries), t.n)
	}
	for i, e := range s.Entries {
		if e.Valid && (e.Tag >= 1<<tagBits || e.Dir > 3) {
			return fmt.Errorf("pht: restored state is corrupt: entry %d holds tag %#x, direction %d (fields hold %d and 2 bits)",
				i, e.Tag, e.Dir, tagBits)
		}
	}
	for i, e := range s.Entries {
		if e.Valid {
			t.setField(i, packField(e.Tag, e.Dir))
		} else {
			t.setField(i, 0)
		}
	}
	return nil
}

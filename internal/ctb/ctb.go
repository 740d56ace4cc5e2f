// Package ctb implements the Changing Target Buffer of the zEC12
// first-level branch predictor: 2,048 tagged entries indexed by the
// instruction addresses of the 12 previous taken branches. It supplies
// targets for branches the BTB marks UseCTB (branches exhibiting multiple
// targets, such as returns and virtual dispatch).
//
// The table is two packed lanes: a raw uint64 target word per entry
// plus an 11-bit valid|tag field stored 16 bits wide, four per uint64
// word. The tests judge it against an entry-struct reference model
// (layout_test.go).
package ctb

import (
	"fmt"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/history"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// DefaultEntries is the zEC12 CTB size.
const DefaultEntries = 2048

// tagBits is the number of branch-address bits stored as tag per entry.
const tagBits = 10

// Packed 16-bit tag field layout (four fields per uint64 word): bit 0
// is valid, bits 1..10 the tag. Targets live in their own word lane.
// These constants are the layout's one statement. TestLayoutSweep
// (layout_test.go) checks both levels against them: the 16-bit
// field's contents, and the four-fields-per-word striding of the
// uint64 lane.
const (
	fieldValidBit = 0
	fieldTagShift = 1
	fieldBits     = 16
)

// metrics is the CTB's registry-backed counter set.
type metrics struct {
	lookups  obs.Counter
	hits     obs.Counter
	installs obs.Counter
	updates  obs.Counter
}

// Table is the changing target buffer.
type Table struct {
	n       int             // entry count
	tags    []uint64        // packed valid|tag fields, four entries per word
	targets []uint64        // raw target addresses, one word per entry
	inj     *fault.Injector // soft-error injection on Lookup; nil = off
	met     metrics
}

// SetInjector attaches (or, with nil, detaches) a fault injector.
func (t *Table) SetInjector(j *fault.Injector) { t.inj = j }

// Injector returns the attached injector (nil when faults are off).
func (t *Table) Injector() *fault.Injector { return t.inj }

// New builds a CTB with the given entry count (power of two).
func New(entries int) *Table {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("ctb: entries must be a positive power of two")
	}
	return &Table{
		n:       entries,
		tags:    make([]uint64, (entries+3)/4),
		targets: make([]uint64, entries),
	}
}

// field returns entry i's packed valid|tag field.
func (t *Table) field(i int) uint64 {
	return t.tags[i>>2] >> (uint(i&3) * fieldBits) & 0xFFFF
}

// setField overwrites entry i's packed valid|tag field with v, masked
// to the entry width so a wide value can never smear into the
// neighboring entries.
func (t *Table) setField(i int, v uint64) {
	sh := uint(i&3) * fieldBits
	t.tags[i>>2] = t.tags[i>>2]&^(uint64(0xFFFF)<<sh) | (v&0xFFFF)<<sh
}

// packField builds the packed valid|tag field for a valid entry.
func packField(tag uint16) uint64 {
	return 1<<fieldValidBit | uint64(tag&((1<<tagBits)-1))<<fieldTagShift
}

// RegisterMetrics enumerates the CTB counters (plus a computed occupancy
// gauge) into r under the given prefix, e.g. "ctb_".
func (t *Table) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"lookups_total", "lookups", "path-correlated target lookups", &t.met.lookups)
	r.Counter(prefix+"hits_total", "lookups", "lookups with a valid tag match", &t.met.hits)
	r.Counter(prefix+"installs_total", "entries", "new entries written", &t.met.installs)
	r.Counter(prefix+"updates_total", "entries", "in-place target retrains", &t.met.updates)
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

// Lookup returns the path-correlated target for the branch at addr. ok is
// false on tag mismatch, in which case the caller uses the BTB target.
func (t *Table) Lookup(h *history.History, addr zaddr.Addr) (target zaddr.Addr, ok bool) {
	t.met.lookups.Inc()
	i := h.CTBIndex(addr, t.n)
	f := t.field(i)
	if t.inj != nil && f&(1<<fieldValidBit) != 0 {
		if bits, ok := t.inj.Strike(); ok {
			t.strikeEntry(i, bits)
			f = t.field(i)
		}
	}
	if f&(1<<fieldValidBit) == 0 || uint16(f>>fieldTagShift)&((1<<tagBits)-1) != tagOf(addr) {
		return 0, false
	}
	t.met.hits.Inc()
	return zaddr.Addr(t.targets[i]), true
}

// strikeEntry lands a fault the injector struck on the entry being
// read, using the strike's random bits. The flip domain is the stored
// payload: the 64-bit target and then the 10 tag bits. Parity recovers
// by invalidation; unprotected flips persist (a flipped target
// silently misdirects every multi-target branch that hits this entry).
func (t *Table) strikeEntry(i int, bits uint64) {
	if t.inj.Parity() {
		t.setField(i, 0)
		t.targets[i] = 0
		t.inj.NoteRecovered()
		return
	}
	if b := bits % (64 + tagBits); b < 64 {
		t.targets[i] ^= 1 << b
	} else {
		t.setField(i, t.field(i)^1<<(fieldTagShift+(b-64)))
	}
	t.inj.NoteSilent()
}

// Update trains the entry for the branch at addr with a resolved target.
func (t *Table) Update(h *history.History, addr, target zaddr.Addr) {
	i := h.CTBIndex(addr, t.n)
	tag := tagOf(addr)
	f := t.field(i)
	if f&(1<<fieldValidBit) != 0 && uint16(f>>fieldTagShift)&((1<<tagBits)-1) == tag {
		t.targets[i] = uint64(target)
		t.met.updates.Inc()
		return
	}
	t.setField(i, packField(tag))
	t.targets[i] = uint64(target)
	t.met.installs.Inc()
}

// Reset invalidates every entry.
func (t *Table) Reset() {
	clear(t.tags)
	clear(t.targets)
	t.met = metrics{}
}

// EntryState is the serializable mirror of one CTB entry.
type EntryState struct {
	Valid  bool
	Tag    uint16
	Target zaddr.Addr
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
			Valid:  true,
			Tag:    uint16(f>>fieldTagShift) & ((1 << tagBits) - 1),
			Target: zaddr.Addr(t.targets[i]),
		}
	}
	return s
}

// RestoreState overwrites the table's contents with s, which must come
// from a table of identical size. Invalid entries restore empty. A valid
// entry whose tag is wider than its packed field is rejected as corrupt
// rather than truncated into a different entry, and a rejected state
// leaves the table untouched.
func (t *Table) RestoreState(s State) error {
	if len(s.Entries) != t.n {
		return fmt.Errorf("ctb: state has %d entries, table has %d", len(s.Entries), t.n)
	}
	for i, e := range s.Entries {
		if e.Valid && e.Tag >= 1<<tagBits {
			return fmt.Errorf("ctb: restored state is corrupt: entry %d holds tag %#x (field holds %d bits)",
				i, e.Tag, tagBits)
		}
	}
	for i, e := range s.Entries {
		if e.Valid {
			t.setField(i, packField(e.Tag))
			t.targets[i] = uint64(e.Target)
		} else {
			t.setField(i, 0)
			t.targets[i] = 0
		}
	}
	return nil
}

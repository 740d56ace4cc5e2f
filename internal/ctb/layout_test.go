package ctb

import (
	"math/rand"
	"reflect"
	"testing"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/history"
	"bulkpreload/internal/layouttest"
	"bulkpreload/internal/zaddr"
)

// refCTB is the entry-struct reference model the packed Table is judged
// against: one EntryState per slot, with the soft-error strike applied
// to the Target and Tag fields. It exists only in tests.
type refCTB struct {
	slots []EntryState
	inj   *fault.Injector
	met   metrics // the table's counter set, stepped as the table should
}

func (m *refCTB) Lookup(h *history.History, addr zaddr.Addr) (zaddr.Addr, bool) {
	m.met.lookups.Inc()
	e := &m.slots[h.CTBIndex(addr, len(m.slots))]
	if m.inj != nil && e.Valid {
		if bits, hit := m.inj.Strike(); hit && m.inj.Parity() {
			*e = EntryState{}
			m.inj.NoteRecovered()
		} else if hit {
			if b := bits % (64 + tagBits); b < 64 {
				e.Target = zaddr.FlipBit(e.Target, uint(b))
			} else {
				e.Tag ^= 1 << (b - 64)
			}
			m.inj.NoteSilent()
		}
	}
	if !e.Valid || e.Tag != tagOf(addr) {
		return 0, false
	}
	m.met.hits.Inc()
	return e.Target, true
}

func (m *refCTB) Update(h *history.History, addr, target zaddr.Addr) {
	e := &m.slots[h.CTBIndex(addr, len(m.slots))]
	if e.Valid && e.Tag == tagOf(addr) {
		e.Target = target
		m.met.updates.Inc()
		return
	}
	*e = EntryState{Valid: true, Tag: tagOf(addr), Target: target}
	m.met.installs.Inc()
}

// TestStructVsPackedModel drives identical randomized Lookup/Update
// sequences — with identically seeded fault injectors striking both —
// against the packed table and the reference model and demands
// identical results, Stats, and State at every step.
func TestStructVsPackedModel(t *testing.T) {
	for _, prot := range []fault.Protection{fault.Unprotected, fault.Parity} {
		packed := New(256)
		ref := &refCTB{slots: make([]EntryState, 256)}
		packed.SetInjector(fault.NewInjector("ctb", 2000, prot, 0xC0FFEE))
		ref.inj = fault.NewInjector("ctb", 2000, prot, 0xC0FFEE)
		rng := rand.New(rand.NewSource(2001))
		var h history.History
		for op := 0; op < 30000; op++ {
			addr := zaddr.Addr(rng.Intn(1<<14)) &^ 1
			switch rng.Intn(3) {
			case 0:
				h.RecordPrediction(addr, true)
			case 1:
				tP, okP := packed.Lookup(&h, addr)
				tR, okR := ref.Lookup(&h, addr)
				if tP != tR || okP != okR {
					t.Fatalf("prot %v op %d: Lookup diverged: (%#x,%v) vs (%#x,%v)",
						prot, op, uint64(tP), okP, uint64(tR), okR)
				}
			case 2:
				target := zaddr.Addr(rng.Uint64())
				packed.Update(&h, addr, target)
				ref.Update(&h, addr, target)
			}
		}
		if sP, sR := packed.met, ref.met; sP != sR {
			t.Fatalf("prot %v: counters diverged: %+v vs %+v", prot, sP, sR)
		}
		if fP, fR := packed.Injector().Stats(), ref.inj.Stats(); fP != fR {
			t.Fatalf("prot %v: fault stats diverged: %+v vs %+v", prot, fP, fR)
		}
		stR := State{Entries: ref.slots}
		if !reflect.DeepEqual(packed.State(), stR) {
			t.Fatalf("prot %v: State diverged from the model", prot)
		}
		// The model's state must restore into a fresh table unchanged.
		fresh := New(256)
		if err := fresh.RestoreState(stR); err != nil {
			t.Fatalf("prot %v: restore model state: %v", prot, err)
		}
		if !reflect.DeepEqual(fresh.State(), stR) {
			t.Fatalf("prot %v: State changed across restore of the model state", prot)
		}
	}
}

// TestRestoreStateRejectsOutOfRange: a checkpoint is unchecksummed gob
// from disk, so a valid entry whose tag overflows its packed field must
// be rejected, not truncated into a different entry, and the rejected
// restore must leave the table untouched.
func TestRestoreStateRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    EntryState
		ok   bool
	}{
		{"widest tag", EntryState{Valid: true, Tag: 1<<tagBits - 1, Target: ^zaddr.Addr(0)}, true},
		{"invalid garbage is dropped", EntryState{Tag: 0xFFFF, Target: 0x1234}, true},
		{"tag 1<<10", EntryState{Valid: true, Tag: 1 << tagBits, Target: 0x40}, false},
		{"tag 0xFFFF", EntryState{Valid: true, Tag: 0xFFFF, Target: 0x40}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := New(16)
			var h history.History
			tbl.Update(&h, 0x4000, 0x5000)
			before := tbl.State()
			st := tbl.State()
			st.Entries[9] = tc.e
			err := tbl.RestoreState(st)
			if !tc.ok {
				if err == nil {
					t.Fatal("RestoreState accepted an out-of-range field")
				}
				if !reflect.DeepEqual(tbl.State(), before) {
					t.Error("a rejected restore modified the table")
				}
				return
			}
			if err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			if !tc.e.Valid {
				st.Entries[9] = EntryState{}
			}
			if !reflect.DeepEqual(tbl.State(), st) {
				t.Fatalf("entry 9 reads back as %+v, want %+v", tbl.State().Entries[9], st.Entries[9])
			}
		})
	}
}

// TestLayoutSweep checks both levels of the packed layout against the
// constants that state it: the 16-bit valid|tag field (packField, read
// back through State) and the four fields of a uint64 word (setField
// and field).
func TestLayoutSweep(t *testing.T) {
	valid := layouttest.Field{Name: "valid", Lo: fieldValidBit, Width: 1}
	field := layouttest.Layout{Bits: fieldBits, Fields: []layouttest.Field{
		{Name: "tag", Lo: fieldTagShift, Width: tagBits},
	}}
	layouttest.Check(t, layouttest.Layout{Bits: fieldBits, Fields: append([]layouttest.Field{valid}, field.Fields...)})
	tbl := New(4)
	read := func(f uint64) EntryState {
		tbl.setField(0, f)
		return tbl.State().Entries[0]
	}
	layouttest.Sweep(t, field, func(base []uint64, k int, v uint64) []byte {
		return layouttest.Word(packField(uint16(v)))
	}, func(word []byte) []uint64 {
		e := read(layouttest.Uint64(word))
		if !e.Valid {
			t.Errorf("packed field %#x reads back invalid", layouttest.Uint64(word))
		}
		return []uint64{uint64(e.Tag)}
	})
	// The valid bit alone decides validity.
	if e := read(1 << fieldValidBit); e != (EntryState{Valid: true}) {
		t.Errorf("field with only the valid bit reads %+v", e)
	}
	if e := read((1<<fieldBits - 1) &^ (1 << fieldValidBit)); e != (EntryState{}) {
		t.Errorf("field with every bit but valid reads %+v", e)
	}
	layouttest.Slots(t, fieldBits, &tbl.tags[0], tbl.setField, tbl.field)
}

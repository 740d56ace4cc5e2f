package btb

import "fmt"

// State is a serializable copy of a table's architectural contents:
// every slot plus the per-row recency order. Activity counters and the
// fault injector schedule are not part of it — a restored table resumes
// with fresh counters, the way a checkpoint-resumed run should.
type State struct {
	Slots []Entry
	Order []uint8
}

// State returns a deep copy of the table's architectural state.
func (t *Table) State() State {
	s := State{
		Slots: make([]Entry, len(t.tags)),
		Order: make([]uint8, len(t.tags)),
	}
	for i := range t.tags {
		t.unpackEntry(i/t.cfg.Ways, i%t.cfg.Ways, &s.Slots[i])
	}
	for row := 0; row < t.cfg.Rows; row++ {
		word := t.lru[row]
		for k := 0; k < t.cfg.Ways; k++ {
			s.Order[row*t.cfg.Ways+k] = uint8(word >> (4 * uint(k)) & 0xF)
		}
	}
	return s
}

// RestoreState overwrites the table's contents with s, which must come
// from a table of identical geometry. Invalid slots restore empty. A
// state the packed lanes cannot hold exactly — a valid entry outside
// the row its address indexes, a direction wider than the 2-bit
// counter, or a row order that is not a permutation of its ways — is
// rejected as corrupt, and a rejected state leaves the table untouched.
func (t *Table) RestoreState(s State) error {
	n := t.cfg.Rows * t.cfg.Ways
	if len(s.Slots) != n || len(s.Order) != n {
		return fmt.Errorf("btb %s: state geometry mismatch: %d slots/%d order, table has %d/%d",
			t.cfg.Name, len(s.Slots), len(s.Order), n, n)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("btb %s: restored state is corrupt: "+format, append([]any{t.cfg.Name}, args...)...)
	}
	// The packed tag word drops the index bits (the row position carries
	// them) and the meta field keeps two direction bits, so both must be
	// checked before packing rather than silently re-addressing or
	// truncating the entry.
	for i := range s.Slots {
		e := &s.Slots[i]
		if !e.Valid {
			continue
		}
		if row := i / t.cfg.Ways; t.RowFor(e.Addr) != row {
			return corrupt("entry %#x stored in row %d but indexes row %d", uint64(e.Addr), row, t.RowFor(e.Addr))
		}
		if e.Dir > 3 {
			return corrupt("entry %#x holds direction %d, wider than the 2-bit counter", uint64(e.Addr), e.Dir)
		}
	}
	lru := make([]uint64, t.cfg.Rows)
	for row := range lru {
		for k, w := range s.Order[row*t.cfg.Ways : (row+1)*t.cfg.Ways] {
			if int(w) >= t.cfg.Ways {
				// Checked before packing: the 4-bit rank nibble would
				// otherwise truncate the evidence.
				return corrupt("row %d: rank %d holds invalid way %d", row, k, w)
			}
			lru[row] |= uint64(w) << (4 * uint(k))
		}
		if err := t.lruWordErr(lru[row]); err != nil {
			return corrupt("row %d: %v", row, err)
		}
	}
	for i := range s.Slots {
		if s.Slots[i].Valid {
			sl := SlotOf(s.Slots[i])
			t.writeSlot(i, t.packKey(sl.Addr), &sl)
		} else {
			t.clearSlot(i)
		}
	}
	copy(t.lru, lru)
	return nil
}

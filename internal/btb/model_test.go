package btb

import (
	"bytes"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/zaddr"
)

// refTable is the array-of-structs reference model the packed Table is
// judged against: one Entry per slot, an explicit recency order per
// row, and the soft-error strike applied to Entry fields by the logical
// payload numbering of fault.go. It is written for obviousness, not
// speed, and exists only in tests.
type refTable struct {
	cfg   Config
	slots []Entry // rows x ways, flat
	// order[row*ways+k] is the way at recency rank k (0 = MRU).
	order []uint8
	inj   *fault.Injector
	met   metrics // the table's counter set, stepped as the table should
}

func newRefTable(cfg Config) *refTable {
	m := &refTable{cfg: cfg, slots: make([]Entry, cfg.Rows*cfg.Ways), order: make([]uint8, cfg.Rows*cfg.Ways)}
	for i := range m.order {
		m.order[i] = uint8(i % cfg.Ways)
	}
	return m
}

func (m *refTable) row(a zaddr.Addr) int { return int(zaddr.Bits(a, m.cfg.IndexHi, m.cfg.IndexLo)) }

// tag is the compared tag: every address bit above the index, or only
// the TagBits bits immediately above it (the test geometries all keep
// tag bits above the index).
func (m *refTable) tag(a zaddr.Addr) uint64 {
	lo := uint(0)
	if m.cfg.TagBits != 0 && m.cfg.TagBits <= m.cfg.IndexHi {
		lo = m.cfg.IndexHi - m.cfg.TagBits
	}
	return zaddr.Bits(a, lo, m.cfg.IndexHi-1)
}

func (m *refTable) sameLine(ea, pa zaddr.Addr) bool {
	return m.row(ea) == m.row(pa) && m.tag(ea) == m.tag(pa)
}

// matches reports whether e would be recognized as the branch at a:
// same line and same offset within it.
func (m *refTable) matches(e *Entry, a zaddr.Addr) bool {
	lb := uint64(m.cfg.LineBytes())
	return e.Valid && m.sameLine(e.Addr, a) && zaddr.OffsetWithin(e.Addr, lb) == zaddr.OffsetWithin(a, lb)
}

// find returns the way holding branch a, or -1. A read (strike) lets
// the injector hit each valid entry it scans; the write paths do not.
func (m *refTable) find(a zaddr.Addr, read bool) int {
	row := m.row(a)
	for w := 0; w < m.cfg.Ways; w++ {
		e := &m.slots[row*m.cfg.Ways+w]
		if read && m.inj != nil && e.Valid {
			m.strike(row, w)
		}
		if m.matches(e, a) {
			return w
		}
	}
	return -1
}

// move puts way w of row at the MRU rank, or at the LRU rank if toLRU.
func (m *refTable) move(row, w int, toLRU bool) {
	ord := m.order[row*m.cfg.Ways : (row+1)*m.cfg.Ways]
	pos := bytes.IndexByte(ord, uint8(w))
	if toLRU {
		copy(ord[pos:], ord[pos+1:])
		ord[len(ord)-1] = uint8(w)
	} else {
		copy(ord[1:pos+1], ord[:pos])
		ord[0] = uint8(w)
	}
}

func (m *refTable) strike(row, w int) {
	bits, ok := m.inj.Strike()
	if !ok {
		return
	}
	e := &m.slots[row*m.cfg.Ways+w]
	if m.inj.Parity() {
		*e = Entry{}
		m.move(row, w, true)
		m.inj.NoteRecovered()
		return
	}
	flipPayload(e, bits)
	m.inj.NoteSilent()
}

// flipPayload flips the logical payload bit bits selects (fault.go
// numbers the domain) in e; the valid bit's upset loses the entry.
func flipPayload(e *Entry, bits uint64) {
	switch b := bits % payloadWidth; {
	case b < dirBit0:
		e.Target = zaddr.FlipBit(e.Target, uint(b))
	case b < usePHTBit:
		e.Dir ^= 1 << (b - dirBit0)
	case b == usePHTBit:
		e.UsePHT = !e.UsePHT
	case b == useCTBBit:
		e.UseCTB = !e.UseCTB
	case b < validBit:
		e.Length ^= 1 << (b - lengthBit0)
	default:
		*e = Entry{}
	}
}

func (m *refTable) LookupLine(line zaddr.Addr, out []Hit) []Hit {
	m.met.lookups.Inc()
	row := m.row(line)
	mru := int(m.order[row*m.cfg.Ways])
	n := len(out)
	for w := 0; w < m.cfg.Ways; w++ {
		e := &m.slots[row*m.cfg.Ways+w]
		if m.inj != nil && e.Valid {
			m.strike(row, w)
		}
		if e.Valid && m.sameLine(e.Addr, line) {
			out = append(out, Hit{Way: w, MRU: w == mru, Entry: *e})
		}
	}
	if len(out) > n {
		m.met.lineHits.Inc()
	}
	return out
}

func (m *refTable) Find(a zaddr.Addr) (Entry, bool) {
	if w := m.find(a, true); w >= 0 {
		return m.slots[m.row(a)*m.cfg.Ways+w], true
	}
	return Entry{}, false
}

func (m *refTable) Contains(a zaddr.Addr) bool { return m.find(a, true) >= 0 }

func (m *refTable) Update(e Entry) bool {
	w := m.find(e.Addr, true)
	if w < 0 {
		return false
	}
	e.Valid = true
	m.slots[m.row(e.Addr)*m.cfg.Ways+w] = e
	m.met.updates.Inc()
	return true
}

func (m *refTable) Insert(e Entry) (victim Entry, evicted bool) {
	e.Valid = true
	row := m.row(e.Addr)
	base := row * m.cfg.Ways
	w := m.find(e.Addr, false)
	if w >= 0 {
		m.met.updates.Inc()
	} else {
		for w = 0; w < m.cfg.Ways && m.slots[base+w].Valid; w++ {
		}
		if w == m.cfg.Ways {
			w = int(m.order[base+m.cfg.Ways-1])
			victim, evicted = m.slots[base+w], true
			m.met.evicts.Inc()
		}
		m.met.installs.Inc()
	}
	m.slots[base+w] = e
	m.move(row, w, false)
	return victim, evicted
}

// recency moves branch a's way to the MRU or LRU rank (clearing it
// first if invalidate); the bool reports whether a was present.
func (m *refTable) recency(a zaddr.Addr, toLRU, invalidate bool) bool {
	w := m.find(a, false)
	if w < 0 {
		return false
	}
	if invalidate {
		m.slots[m.row(a)*m.cfg.Ways+w] = Entry{}
	}
	m.move(m.row(a), w, toLRU)
	return true
}

func (m *refTable) Touch(a zaddr.Addr) bool      { return m.recency(a, false, false) }
func (m *refTable) Demote(a zaddr.Addr) bool     { return m.recency(a, true, false) }
func (m *refTable) Invalidate(a zaddr.Addr) bool { return m.recency(a, true, true) }

func (m *refTable) Entries() []zaddr.Addr {
	out := []zaddr.Addr{}
	for _, e := range m.slots {
		if e.Valid {
			out = append(out, e.Addr)
		}
	}
	return out
}

func (m *refTable) State() State {
	return State{Slots: append([]Entry(nil), m.slots...), Order: append([]uint8(nil), m.order...)}
}

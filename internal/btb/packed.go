package btb

import (
	"bulkpreload/internal/bht"
	"bulkpreload/internal/zaddr"
)

// Packed word formats (little-endian bit positions within each lane
// word; docs/PERFORMANCE.md has the full diagrams).
//
// Tag lane, one word per slot:
//
//	bit  0              valid
//	bits 1 .. offBits   in-line byte offset (address bits IndexLo+1..63)
//	bits tagShift ..    full tag (address bits 0..IndexHi-1)
//
// With IndexHi + IndexLo spanning the whole address, the three fields
// always fit: 1 + (63-IndexLo) + IndexHi = 65 - (index width) <= 64.
// The full tag is stored even under TagBits truncation so the branch
// address reconstructs exactly; truncation applies at compare time via
// lineMask/entryMask, which keep only the low TagBits bits of the tag
// field: the TagBits address bits immediately above the index. An
// invalid slot is all-zero in every lane, and every probe key carries
// valid=1, so invalid slots can never match a masked compare.
//
// Target lane: the raw 64-bit target address, one word per slot.
//
// Meta lane: one 16-bit field per slot, four fields per word:
//
//	bits 0..1  dir (2-bit bimodal counter)
//	bit  2     usePHT
//	bit  3     useCTB
//	bits 4..11 length
//
// LRU word, one per row: 4-bit way numbers indexed by recency rank,
// rank 0 (bits 0..3) = MRU, rank Ways-1 = LRU. Promote/demote are a
// masked shift of the ranks between the way's old and new position.
//
// These constants, and the Table's geometry fields for the tag word,
// are the layout's one statement. TestLayoutSweep (layout_test.go)
// sets each field alone to all-ones and to a value one bit too wide,
// and checks that only that field's declared bits move, in every
// study geometry and in random valid ones.
const (
	metaDirShift  = 0
	metaUsePHTBit = 2
	metaUseCTBBit = 3
	metaLenShift  = 4
	metaFieldBits = 16
)

// packKey builds the tag-lane word for address a: the value a resident
// entry for a would store, and the probe key a lookup for a compares
// rows against.
func (t *Table) packKey(a zaddr.Addr) uint64 {
	//zbp:allow rawaddr the in-line offset width is this table's runtime geometry; TestLayoutSweep checks the tag word
	k := 1 | uint64(a)&(t.lineBytes-1)<<1
	if t.hiBits > 0 {
		//zbp:allow rawaddr the tag's shifts are this table's runtime geometry; TestLayoutSweep checks the tag word
		k |= uint64(a) >> t.tagIn << t.tagShift
	}
	return k
}

// Slot is one resident entry in lane form, the unit a bulk transfer
// moves between tables: the branch address rebuilt from its row, tag
// and offset, plus the raw target and meta words. The target is a raw
// address and the meta field has the same 16-bit format in every
// table, so both copy across tables as-is; only the tag word is
// re-derived from Addr, because each table indexes its own bit range.
type Slot struct {
	Addr   zaddr.Addr
	Target uint64 // raw target lane word
	Meta   uint64 // 16-bit meta field
	Way    int    // way ReadLine read the slot from; zero in a packed Entry
}

// SlotOf packs e into lane form.
func SlotOf(e Entry) Slot {
	return Slot{Addr: e.Addr, Target: uint64(e.Target), Meta: packMeta(e)}
}

// packMeta builds the 16-bit meta field for e.
func packMeta(e Entry) uint64 {
	m := uint64(e.Dir)&3 | uint64(e.Length)<<metaLenShift
	if e.UsePHT {
		m |= 1 << metaUsePHTBit
	}
	if e.UseCTB {
		m |= 1 << metaUseCTBBit
	}
	return m
}

// Entry decodes s into a valid Entry.
func (s Slot) Entry() Entry {
	e := Entry{Valid: true, Addr: s.Addr, Target: zaddr.Addr(s.Target)}
	unpackMeta(s.Meta, &e)
	return e
}

// unpackMeta decodes the 16-bit meta field m into e.
func unpackMeta(m uint64, e *Entry) {
	e.Dir = bht.Bimodal(m >> metaDirShift & 3)
	e.UsePHT = m&(1<<metaUsePHTBit) != 0
	e.UseCTB = m&(1<<metaUseCTBBit) != 0
	e.Length = uint8(m >> metaLenShift)
}

// slotAddr decodes tag word k of a slot in row: the branch address,
// reconstructed from the stored tag + the row index + the stored
// offset, and whether the slot is valid. The reconstruction is exact:
// the tag field keeps all bits above the index even when compares
// truncate to TagBits.
func (t *Table) slotAddr(row int, k uint64) (zaddr.Addr, bool) {
	addr := uint64(row)<<t.offBits | k>>1&((1<<t.offBits)-1)
	if t.hiBits > 0 {
		addr |= k >> t.tagShift << (64 - t.hiBits)
	}
	return zaddr.Addr(addr), k&1 != 0
}

// readSlot copies slot (row, w) out in lane form; the slot must be
// valid.
func (t *Table) readSlot(row, w int) Slot {
	i := row*t.cfg.Ways + w
	a, _ := t.slotAddr(row, t.tags[i])
	return Slot{Addr: a, Target: t.targets[i], Meta: t.metaField(i), Way: w}
}

// unpackEntry decodes slot (row, w) into *e; an invalid slot decodes
// to the zero Entry.
func (t *Table) unpackEntry(row, w int, e *Entry) {
	i := row*t.cfg.Ways + w
	a, ok := t.slotAddr(row, t.tags[i])
	if !ok {
		*e = Entry{}
		return
	}
	e.Valid, e.Addr, e.Target = true, a, zaddr.Addr(t.targets[i])
	unpackMeta(t.metaField(i), e)
}

// writeSlot stores s into slot i (unconditionally valid, like the
// hardware array write it models): key is s.Addr's tag word for this
// table's geometry (packKey), and the target and meta words are copied.
func (t *Table) writeSlot(i int, key uint64, s *Slot) {
	t.tags[i] = key
	t.targets[i] = s.Target
	t.setMetaField(i, s.Meta)
}

// clearSlot zeroes every lane of slot i; all-zero is the canonical
// invalid state.
func (t *Table) clearSlot(i int) {
	t.tags[i] = 0
	t.targets[i] = 0
	t.setMetaField(i, 0)
}

// metaField returns slot i's 16-bit meta field.
func (t *Table) metaField(i int) uint64 {
	return t.meta[i>>2] >> (uint(i&3) * metaFieldBits) & 0xFFFF
}

// setMetaField overwrites slot i's 16-bit meta field with v. The
// store masks v to the slot width so a wide value can never smear
// into the neighboring slots.
func (t *Table) setMetaField(i int, v uint64) {
	sh := uint(i&3) * metaFieldBits
	t.meta[i>>2] = t.meta[i>>2]&^(uint64(0xFFFF)<<sh) | (v&0xFFFF)<<sh
}

// xorMetaField flips the given bits of slot i's meta field (the fault
// injector's single-event-upset primitive). Masking bits to the slot
// width keeps the flip from leaking into the neighboring slots.
func (t *Table) xorMetaField(i int, bits uint64) {
	t.meta[i>>2] ^= (bits & 0xFFFF) << (uint(i&3) * metaFieldBits)
}

// rankOf returns way w's recency rank in the LRU word. The word is a
// permutation of the row's ways (checkLRUInvariant), so the scan always
// terminates within Ways nibbles; the final rank is returned without a
// compare to keep the loop bounded even on corrupt words.
func rankOf(word uint64, w, ways int) uint {
	for k := uint(0); k < uint(ways-1); k++ {
		if int(word>>(4*k)&0xF) == w {
			return k
		}
	}
	return uint(ways - 1)
}

// promoteWay moves way w of row to recency rank 0 (MRU): the ranks
// below w's old position shift up one nibble and w drops into rank 0.
func (t *Table) promoteWay(row, w int) {
	word := t.lru[row]
	pos := rankOf(word, w, t.cfg.Ways)
	keep := word >> (4 * (pos + 1)) << (4 * (pos + 1)) // ranks above pos
	moved := (word & (1<<(4*pos) - 1)) << 4            // ranks 0..pos-1 -> 1..pos
	t.lru[row] = keep | moved | uint64(w)
}

// demoteWay moves way w of row to recency rank Ways-1 (LRU): the ranks
// above w's old position shift down one nibble and w lands in the last
// rank.
func (t *Table) demoteWay(row, w int) {
	word := t.lru[row]
	pos := rankOf(word, w, t.cfg.Ways)
	keep := word & (1<<(4*pos) - 1)               // ranks below pos
	moved := word >> (4 * (pos + 1)) << (4 * pos) // ranks pos+1.. -> pos..
	t.lru[row] = keep | moved | uint64(w)<<(4*uint(t.cfg.Ways-1))
}

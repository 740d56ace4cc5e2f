package btb

import "bulkpreload/internal/fault"

// SetInjector attaches (or, with nil, detaches) a fault injector. With an
// injector attached, every read of a valid entry on the lookup paths
// (LookupLine, CountFrom, Probe, Find/Contains/Update) may be struck by
// a soft error per the injector's arrival schedule.
func (t *Table) SetInjector(j *fault.Injector) { t.inj = j }

// quiet reports whether the attached injector's quiet window covers a
// row read that touches at most n valid entries. Such a read runs the
// unarmed scan and passes the valid entries it read to the injector in
// one step, which fault.Injector.Pass makes exactly equivalent to
// striking each of them in turn; any other read takes the struck path,
// which calls Strike per valid entry. With no injector nothing
// strikes, so every read is quiet.
func (t *Table) quiet(n int) bool { return t.inj.Quiet() >= uint64(n) }

// Injector returns the attached injector (nil when faults are off).
func (t *Table) Injector() *fault.Injector { return t.inj }

// Bit positions of the corruptible entry payload. The branch address
// (index + tag) is deliberately outside the flip domain: hardware stores
// it as a tag whose upset makes the entry mismatch every probe — the
// same observable outcome as losing the entry — so tag upsets are
// modeled as the validBit case rather than as an Addr rewrite, which
// could fabricate aliases that no hardware fault can produce (two tags
// cannot collide inside one row) and would break the hierarchy's
// structural invariants.
//
// The domain is defined over the logical Entry payload, not the
// physical lane words: bit b of the domain is Entry.Target bit b, the
// next two bits are Entry.Dir, and so on. The validBit case clears
// every lane of the slot (all-zero is the canonical invalid state, so
// no residue of the lost entry survives into State snapshots).
//
// TestPayloadLayout (layout_test.go) flips each of the 72 bits through
// corruptSlot and checks that exactly the Entry field named below
// moves, so a width or position change here fails there.
const (
	targetBits   = 64             // Entry.Target, bits 0..63
	dirBit0      = targetBits     // Entry.Dir, 2-bit bimodal counter
	usePHTBit    = dirBit0 + 2    // Entry.UsePHT
	useCTBBit    = usePHTBit + 1  // Entry.UseCTB
	lengthBit0   = useCTBBit + 1  // Entry.Length, 3 bits
	validBit     = lengthBit0 + 3 // tag/valid upset: entry is lost
	payloadWidth = validBit + 1   // 72
)

// strikeSlot lands a fault the injector struck on way w of row, using
// the strike's random bits. The struck row reads call the inlined
// fault.Injector.Strike per valid slot and come here only on a strike. Parity protection detects the upset and
// recovers by invalidation (the way becomes LRU, and semi-exclusivity
// lets first-level entries refetch from BTB2); unprotected arrays keep
// serving the flipped entry.
func (t *Table) strikeSlot(row, w int, bits uint64) {
	i := row*t.cfg.Ways + w
	if t.inj.Parity() {
		t.clearSlot(i)
		t.demoteWay(row, w)
		t.inj.NoteRecovered()
		return
	}
	t.corruptSlot(i, bits)
	t.inj.NoteSilent()
}

// corruptSlot flips one uniformly chosen payload bit of slot i, at the
// lane bit that stores it.
func (t *Table) corruptSlot(i int, bits uint64) {
	b := bits % payloadWidth
	switch {
	case b < dirBit0:
		t.targets[i] ^= 1 << b
	case b < usePHTBit:
		t.xorMetaField(i, 1<<(metaDirShift+(b-dirBit0))) // stays within the 2-bit counter range
	case b == usePHTBit:
		t.xorMetaField(i, 1<<metaUsePHTBit)
	case b == useCTBBit:
		t.xorMetaField(i, 1<<metaUseCTBBit)
	case b < validBit:
		t.xorMetaField(i, 1<<(metaLenShift+(b-lengthBit0)))
	default:
		t.clearSlot(i) // tag/valid upset: entry is lost
	}
}

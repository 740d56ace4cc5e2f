package btb

import (
	"fmt"
	"math/rand"
	"testing"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/layouttest"
	"bulkpreload/internal/zaddr"
)

// layoutConfigs returns every geometry the studies build (BTB1, BTBP,
// BTB2, the large BTB1, and BTB2 with 64 B and 128 B rows), the widest
// row an LRU word holds, and random configurations Validate accepts,
// which custom specs may set.
func layoutConfigs() []Config {
	cfgs := []Config{
		BTB1Config, BTBPConfig, BTB2Config, LargeBTB1Config,
		{Name: "BTB2-64B", Rows: 4096, Ways: 6, IndexHi: 46, IndexLo: 57},
		{Name: "BTB2-128B", Rows: 4096, Ways: 6, IndexHi: 45, IndexLo: 56},
		{Name: "16-way", Rows: 2, Ways: MaxWays, IndexHi: 58, IndexLo: 58, TagBits: 3},
	}
	rng := rand.New(rand.NewSource(31))
	for len(cfgs) < 30 {
		lo := uint(56 + rng.Intn(3))
		width := uint(1 + rng.Intn(10))
		hi := lo + 1 - width
		cfg := Config{
			Name: fmt.Sprintf("rand%d", len(cfgs)), Rows: 1 << width, Ways: 1 + rng.Intn(MaxWays),
			IndexHi: hi, IndexLo: lo, TagBits: uint(rng.Intn(int(hi) + 3)),
		}
		if cfg.Validate() == nil {
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestLayoutSweep checks every packed lane of a table against the
// layout packed.go states, in every layoutConfigs geometry: the tag
// word (packKey/slotAddr, plus its compare masks), the 16-bit meta
// field (packMeta/unpackMeta), the four meta fields of a meta word
// (setMetaField/xorMetaField/metaField), and the LRU word's 4-bit ranks
// (promoteWay/demoteWay/rankOf).
func TestLayoutSweep(t *testing.T) {
	for _, cfg := range layoutConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			tbl := New(cfg)
			tagWordLayout(t, tbl)
			metaLayout(t, tbl)
			lruLayout(t, tbl)
		})
	}
}

// tagWordLayout sweeps the tag word. Its fields come from the address:
// the in-line offset is the low 63-IndexLo address bits and the tag the
// top IndexHi bits, stored above the valid bit and the offset. The
// address's row bits are held at all-zero and then all-ones; the tag
// word must not store them.
func tagWordLayout(t *testing.T, tbl *Table) {
	cfg := tbl.cfg
	offBits, hiBits := 63-cfg.IndexLo, cfg.IndexHi
	valid := layouttest.Field{Name: "valid", Lo: 0, Width: 1}
	offset := layouttest.Field{Name: "offset", Lo: 1, Width: offBits}
	tag := layouttest.Field{Name: "tag", Lo: 1 + offBits, Width: hiBits}
	layouttest.Check(t, layouttest.Layout{Bits: 64, Fields: []layouttest.Field{valid, offset, tag}})
	l := layouttest.Layout{Bits: 64, Fields: []layouttest.Field{offset, tag}}
	for _, row := range []int{0, cfg.Rows - 1} {
		addr := func(off, tg uint64) zaddr.Addr {
			return zaddr.Addr(tg<<(64-hiBits) | uint64(row)<<offBits | off)
		}
		set := func(base []uint64, k int, v uint64) []byte {
			vals := append([]uint64(nil), base...)
			vals[k] = v
			key := tbl.packKey(addr(vals[0], vals[1]))
			if key&1 != 1 {
				t.Errorf("row %d: packKey %#x has its valid bit clear", row, key)
			}
			return layouttest.Word(key)
		}
		get := func(word []byte) []uint64 {
			key := layouttest.Uint64(word)
			a, ok := tbl.slotAddr(row, key)
			if !ok {
				t.Errorf("row %d: slotAddr(%#x) reads an invalid slot", row, key)
			}
			if _, ok := tbl.slotAddr(row, key&^1); ok {
				t.Errorf("row %d: slotAddr(%#x) reads a valid slot with bit 0 clear", row, key&^1)
			}
			if got := tbl.RowFor(a); got != row {
				t.Errorf("slotAddr(%d, %#x) = %#x, in row %d", row, key, uint64(a), got)
			}
			return []uint64{uint64(a) & (1<<offBits - 1), uint64(a) >> (64 - hiBits)}
		}
		layouttest.Sweep(t, l, set, get)
	}

	// The compare masks: lineMask is the valid bit plus the compared
	// tag bits, the low TagBits bits of the tag field (all of them when
	// TagBits is 0 or too wide); entryMask adds the offset.
	cmp := hiBits
	if cfg.TagBits != 0 && cfg.TagBits < hiBits {
		cmp = cfg.TagBits
	}
	line := make([]byte, 8)
	layouttest.Put(line, valid, 1)
	layouttest.Put(line, layouttest.Field{Lo: tag.Lo, Width: cmp}, ^uint64(0))
	entry := append([]byte(nil), line...)
	layouttest.Put(entry, offset, ^uint64(0))
	if tbl.lineMask != layouttest.Uint64(line) || tbl.entryMask != layouttest.Uint64(entry) {
		t.Errorf("lineMask %#x entryMask %#x, want %#x %#x", tbl.lineMask, tbl.entryMask, layouttest.Uint64(line), layouttest.Uint64(entry))
	}
}

// metaLayout sweeps the 16-bit meta field and the meta word that packs
// four of them.
func metaLayout(t *testing.T, tbl *Table) {
	field := layouttest.Layout{Bits: metaFieldBits, Fields: []layouttest.Field{
		{Name: "dir", Lo: metaDirShift, Width: 2},
		{Name: "usePHT", Lo: metaUsePHTBit, Width: 1},
		{Name: "useCTB", Lo: metaUseCTBBit, Width: 1},
		{Name: "length", Lo: metaLenShift, Width: 8},
	}}
	layouttest.Sweep(t, field, func(base []uint64, k int, v uint64) []byte {
		vals := append([]uint64(nil), base...)
		vals[k] = v
		return layouttest.Word(packMeta(Entry{
			Dir: bht.Bimodal(vals[0]), UsePHT: vals[1] != 0, UseCTB: vals[2] != 0, Length: uint8(vals[3]),
		}))
	}, func(word []byte) []uint64 {
		var e Entry
		unpackMeta(layouttest.Uint64(word), &e)
		return []uint64{uint64(e.Dir), layouttest.Bit(e.UsePHT), layouttest.Bit(e.UseCTB), uint64(e.Length)}
	})

	layouttest.Slots(t, metaFieldBits, &tbl.meta[0], tbl.setMetaField, tbl.metaField)
	// xorMetaField flips bits of one field: flipping the difference
	// from the stored value must land exactly where storing v does.
	layouttest.Slots(t, metaFieldBits, &tbl.meta[0], func(i int, v uint64) {
		tbl.xorMetaField(i, v^tbl.metaField(i))
	}, tbl.metaField)
	tbl.meta[0] = 0
}

// lruLayout drives the LRU word through promoteWay and demoteWay from
// every rank, against a rank-ordered slice of ways: the word must be
// exactly the slice's 4-bit ranks, rank 0 in bits 0..3, with nothing
// above rank Ways-1, and rankOf must read every way's rank back.
func lruLayout(t *testing.T, tbl *Table) {
	ways := tbl.cfg.Ways
	wordOf := func(order []int) uint64 {
		w := make([]byte, 8)
		for r, way := range order {
			layouttest.Put(w, layouttest.Field{Lo: 4 * uint(r), Width: 4}, uint64(way))
		}
		return layouttest.Uint64(w)
	}
	for pos := 0; pos < ways; pos++ {
		for _, toLRU := range []bool{false, true} {
			order := make([]int, ways) // way ways-1 first, so the all-ones way 15 sits at rank 0 of a 16-way row
			for r := range order {
				order[r] = ways - 1 - r
			}
			tbl.lru[0] = wordOf(order)
			w := order[pos]
			next := append(append([]int(nil), order[:pos]...), order[pos+1:]...)
			if toLRU {
				tbl.demoteWay(0, w)
				next = append(next, w)
			} else {
				tbl.promoteWay(0, w)
				next = append([]int{w}, next...)
			}
			if got, want := tbl.lru[0], wordOf(next); got != want {
				t.Errorf("%d ways: moving the way at rank %d (toLRU %v) gives LRU word %#x, want %#x", ways, pos, toLRU, got, want)
			}
			for r, way := range next {
				if got := rankOf(tbl.lru[0], way, ways); got != uint(r) {
					t.Errorf("%d ways: rankOf(%#x, %d) = %d, want %d", ways, tbl.lru[0], way, got, r)
				}
			}
		}
	}
	tbl.lru[0] = tbl.initLRU
}

// payloadFields is the 72-bit fault payload, stated here apart from
// fault.go's constants on purpose: which Entry bit each strike's random
// bits select is part of the fault study's golden results, so a change
// to the payload's width or order must fail this table.
var payloadFields = []struct {
	name      string
	lo, width uint64
}{
	{"Target", 0, 64},
	{"Dir", 64, 2},
	{"UsePHT", 66, 1},
	{"UseCTB", 67, 1},
	{"Length", 68, 3},
	{"Valid", 71, 1},
}

const payloadBits = 72

// TestPayloadLayout flips each payload bit through corruptSlot, over
// two periods of the 72-bit domain and over a slot whose fields are
// first all-zero and then all-ones, and checks that exactly the
// declared Entry field moves, by exactly the declared bit, and that no
// other slot of the row (the four share a meta word) changes.
func TestPayloadLayout(t *testing.T) {
	cfg := Config{Name: "payload", Rows: 16, Ways: 4, IndexHi: 55, IndexLo: 58}
	bases := []Entry{
		{Valid: true},
		{Valid: true, Target: ^zaddr.Addr(0), Dir: 3, UsePHT: true, UseCTB: true, Length: 0xFF},
	}
	for _, base := range bases {
		for bits := uint64(0); bits < 2*payloadBits; bits++ {
			tbl := New(cfg)
			for w := 0; w < cfg.Ways; w++ {
				e := base
				e.Addr = zaddr.Addr(0x4010 + 2*w)
				tbl.Insert(e)
			}
			i := tbl.RowFor(0x4010)*cfg.Ways + 1
			before := tbl.State()
			tbl.corruptSlot(i, bits)
			after := tbl.State()

			b := bits % payloadBits
			want := before.Slots[i]
			for _, f := range payloadFields {
				if b < f.lo || b >= f.lo+f.width {
					continue
				}
				j := b - f.lo
				switch f.name {
				case "Target":
					want.Target ^= 1 << j
				case "Dir":
					want.Dir ^= 1 << j
				case "UsePHT":
					want.UsePHT = !want.UsePHT
				case "UseCTB":
					want.UseCTB = !want.UseCTB
				case "Length":
					want.Length ^= 1 << j
				case "Valid":
					want = Entry{}
				}
			}
			for s := range after.Slots {
				w := before.Slots[s]
				if s == i {
					w = want
				}
				if after.Slots[s] != w {
					t.Errorf("base %+v, bits %d (payload bit %d): slot %d is %+v, want %+v", base, bits, b, s, after.Slots[s], w)
				}
			}
		}
	}
}

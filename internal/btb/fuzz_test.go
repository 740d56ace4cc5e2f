package btb

import (
	"encoding/binary"
	"reflect"
	"testing"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/zaddr"
)

// FuzzPackedRow splats raw fuzzer-chosen words into one packed row's
// lanes — tag words, target words, the shared meta word, even the LRU
// word — then drives every read path over it. Decode must never panic,
// and a slot whose valid bit is clear must never produce a hit no
// matter what garbage its other lanes hold (the probe key always
// carries valid=1 and every compare mask includes the valid bit).
func FuzzPackedRow(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0x3210), uint64(0x1234))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0xFFFE), uint64(2), uint64(0x8000_0000_0000_0001),
		uint64(42), uint64(7), uint64(0xF00F), uint64(0xBEEF))
	// Seed one input per field boundary of the packed layouts (the
	// constants in packed.go, swept by TestLayoutSweep), so the corpus
	// starts exactly at the bit positions where off-by-one packing bugs
	// live. For the Config
	// below (IndexHi 55, IndexLo 58) the tag word's declared fields sit
	// at valid:0, offset:1..5, tag:6..63.
	for _, bit := range []uint{0, 1, 5, 6, 63} {
		f.Add(uint64(1)<<bit|1, uint64(0), uint64(0), uint64(0),
			uint64(0), uint64(0), uint64(0x3210), uint64(0))
	}
	// Meta lane: dir:0..1, usePHT:2, useCTB:3, length:4..11 inside each
	// of the four 16-bit slots of the shared word.
	for slot := uint(0); slot < 4; slot++ {
		for _, b := range []uint{0, 1, 2, 3, 4, 11, 15} {
			f.Add(uint64(1), uint64(0), uint64(0), uint64(0),
				uint64(0), uint64(1)<<(slot*16+b), uint64(0x3210), uint64(0))
		}
	}
	// LRU word: rank[16] nibbles — flood one rank's nibble per seed.
	for rank := uint(0); rank < 4; rank++ {
		f.Add(uint64(1), uint64(0), uint64(0), uint64(0),
			uint64(0), uint64(0), uint64(0x3210)^uint64(0xF)<<(rank*4), uint64(0))
	}
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, targ, meta, lruWord, probe uint64) {
		cfg := Config{Name: "fuzz", Rows: 16, Ways: 4, IndexHi: 55, IndexLo: 58, TagBits: 3}
		tbl := New(cfg)
		words := [4]uint64{w0, w1, w2, w3}
		copy(tbl.tags[:4], words[:])
		for i := range words {
			tbl.targets[i] = targ ^ words[i]
		}
		tbl.meta[0] = meta
		tbl.lru[0] = lruWord

		probes := []zaddr.Addr{
			zaddr.Addr(probe),
			zaddr.SetBits(zaddr.Addr(probe), cfg.IndexHi, cfg.IndexLo, 0), // force row 0
			0,
		}
		var hits []Hit
		for _, p := range probes {
			hits = tbl.LookupLine(p, hits[:0])
			for _, h := range hits {
				if !h.Entry.Valid {
					t.Fatalf("LookupLine(%#x) returned an invalid entry: %+v", uint64(p), h)
				}
				if tbl.tags[tbl.RowFor(p)*cfg.Ways+h.Way]&1 == 0 {
					t.Fatalf("LookupLine(%#x) hit way %d whose valid bit is clear", uint64(p), h.Way)
				}
			}
			if e, ok := tbl.Find(p); ok && !e.Valid {
				t.Fatalf("Find(%#x) returned an invalid entry", uint64(p))
			}
			tbl.Contains(p)
			tbl.TouchSlot(Slot{Addr: p, Way: -1})
			tbl.DemoteSlot(Slot{Addr: p, Way: -1})
			tbl.Invalidate(p)
		}
		tbl.CountValid()
		tbl.Entries()
		st := tbl.State()
		for i, s := range st.Slots[:4] {
			if s.Valid != (tbl.tags[i]&1 != 0) {
				t.Fatalf("slot %d: State valid %v disagrees with tag word %#x", i, s.Valid, tbl.tags[i])
			}
		}
		// Restoring the snapshot may legitimately fail (the fuzzed LRU
		// word need not be a permutation); it must not panic, and when
		// it succeeds the re-snapshot must be identical on the slots.
		fresh := New(cfg)
		if err := fresh.RestoreState(st); err == nil {
			st2 := fresh.State()
			for i := range st.Slots {
				if st.Slots[i] != st2.Slots[i] {
					t.Fatalf("slot %d changed across restore: %+v vs %+v", i, st.Slots[i], st2.Slots[i])
				}
			}
		}
	})
}

// FuzzRestoreState splats fuzzer-chosen State slots and recency order
// into a small table. RestoreState must never panic; a rejected state
// must leave the table untouched; an accepted one must read back from
// State equal to the input, with invalid slots zeroed. With repair set,
// each valid entry is moved to the row it indexes, its direction is
// clamped to the 2-bit counter, and each row's order is shuffled into a
// permutation, so the state must be accepted.
func FuzzRestoreState(f *testing.F) {
	const slotBytes = 18 // addr(8) target(8) flags(1) length(1)
	f.Add([]byte{}, false)
	f.Add([]byte{}, true)
	f.Add(make([]byte, 12*slotBytes+12), false)
	full := make([]byte, 12*slotBytes+12)
	for i := range full {
		full[i] = byte(i*37 + 11)
	}
	f.Add(full, true)
	f.Add(full, false)
	f.Fuzz(func(t *testing.T, data []byte, repair bool) {
		cfg := Config{Name: "fuzz", Rows: 4, Ways: 3, IndexHi: 57, IndexLo: 58, TagBits: 3}
		n := cfg.Rows * cfg.Ways
		buf := make([]byte, n*slotBytes+n)
		copy(buf, data)
		st := State{Slots: make([]Entry, n), Order: buf[n*slotBytes:]}
		for i := range st.Slots {
			b := buf[i*slotBytes:]
			e := Entry{
				Valid:  b[16]&1 != 0,
				Addr:   zaddr.Addr(binary.LittleEndian.Uint64(b)),
				Target: zaddr.Addr(binary.LittleEndian.Uint64(b[8:])),
				UsePHT: b[16]&2 != 0,
				UseCTB: b[16]&4 != 0,
				Dir:    bht.Bimodal(b[16] >> 3),
				Length: b[17],
			}
			if repair {
				e.Addr = zaddr.SetBits(e.Addr, cfg.IndexHi, cfg.IndexLo, uint64(i/cfg.Ways))
				e.Dir &= 3
			}
			st.Slots[i] = e
		}
		if repair {
			for row := 0; row < cfg.Rows; row++ {
				ord := st.Order[row*cfg.Ways : (row+1)*cfg.Ways]
				perm := make([]uint8, cfg.Ways)
				for k := range perm {
					perm[k] = uint8(k)
				}
				for k := range perm {
					j := k + int(ord[k])%(len(perm)-k)
					perm[k], perm[j] = perm[j], perm[k]
				}
				copy(ord, perm)
			}
		}

		tbl := New(cfg)
		tbl.Insert(Entry{Addr: 0x2000, Target: 0x3000, Dir: 2, Length: 4})
		before := tbl.State()
		if err := tbl.RestoreState(st); err != nil {
			if repair {
				t.Fatalf("RestoreState rejected a repaired state: %v", err)
			}
			if !reflect.DeepEqual(tbl.State(), before) {
				t.Fatalf("rejected RestoreState (%v) modified the table", err)
			}
			return
		}
		want := State{Slots: make([]Entry, n), Order: st.Order}
		for i, e := range st.Slots {
			if e.Valid {
				want.Slots[i] = e
			}
		}
		if got := tbl.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("accepted state reads back differently:\n got %+v\nwant %+v", got, want)
		}
		if err := tbl.CheckLRUInvariant(); err != nil {
			t.Fatalf("accepted state breaks the LRU invariant: %v", err)
		}
	})
}

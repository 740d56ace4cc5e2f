package btb

import (
	"math/rand"
	"reflect"
	"testing"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/zaddr"
)

// TestFaultParityInvalidatesPackedWord pins the parity contract on the
// packed layout: a detected upset in a packed tag/state word clears
// every lane of the slot, demotes the way to LRU, and counts a
// recovery — byte-for-byte the behavior of the reference model under
// the same injector seed.
func TestFaultParityInvalidatesPackedWord(t *testing.T) {
	cfg := Config{Name: "par", Rows: 16, Ways: 2, IndexHi: 55, IndexLo: 58}
	packed, ref := New(cfg), newRefTable(cfg)
	// A rate of 1e6 per million reads arms a strike on (essentially)
	// every read, so the very first lookup is hit deterministically.
	packed.SetInjector(fault.NewInjector("btb", 1e6, fault.Parity, 42, false))
	ref.inj = fault.NewInjector("btb", 1e6, fault.Parity, 42, false)

	e := Entry{Addr: 0x4010, Target: 0x8888, Dir: 3, UsePHT: true, Length: 6}
	packed.Insert(e)
	ref.Insert(e)

	var hits []Hit
	if hits = packed.LookupLine(e.Addr, hits[:0]); len(hits) != 0 {
		t.Fatalf("packed: parity strike should have dropped the entry, got %d hits", len(hits))
	}
	if hits = ref.LookupLine(e.Addr, hits[:0]); len(hits) != 0 {
		t.Fatalf("model: parity strike should have dropped the entry, got %d hits", len(hits))
	}
	if got := packed.Injector().Stats(); got.Recovered != 1 {
		t.Fatalf("packed: recovered = %d, want 1", got.Recovered)
	}
	if pS, rS := packed.Injector().Stats(), ref.inj.Stats(); pS != rS {
		t.Fatalf("fault stats diverged: packed %+v vs model %+v", pS, rS)
	}
	// The slot must be canonically empty in every lane, not just
	// invalid: all-zero words and the way at LRU.
	row := packed.RowFor(e.Addr)
	i := row * cfg.Ways
	for w := 0; w < cfg.Ways; w++ {
		if packed.tags[i+w] != 0 || packed.targets[i+w] != 0 || packed.metaField(i+w) != 0 {
			t.Fatalf("packed slot %d holds residue after parity recovery", i+w)
		}
	}
	if !reflect.DeepEqual(packed.State(), ref.State()) {
		t.Fatal("State diverged after parity recovery")
	}
	if packed.CountValid() != 0 {
		t.Fatalf("packed CountValid = %d after recovery", packed.CountValid())
	}
}

// TestFaultStructVsPackedModel drives the packed table and the
// reference model with identically seeded injectors through a
// randomized workload, under both protection models, and demands
// identical silent corruptions, recoveries, Stats, and State — the
// packed flip of a target/dir/flag/length/valid bit must land on
// exactly the logical Entry bit the model flips.
func TestFaultStructVsPackedModel(t *testing.T) {
	cfg := Config{Name: "flt", Rows: 16, Ways: 4, IndexHi: 55, IndexLo: 58}
	for _, prot := range []fault.Protection{fault.Unprotected, fault.Parity} {
		packed, ref := New(cfg), newRefTable(cfg)
		packed.SetInjector(fault.NewInjector("btb", 5000, prot, 0xDEAD, false))
		ref.inj = fault.NewInjector("btb", 5000, prot, 0xDEAD, false)
		rng := rand.New(rand.NewSource(77))
		var hitsP, hitsR []Hit
		for op := 0; op < 30000; op++ {
			a := zaddr.Addr(rng.Intn(1<<11)) &^ 1
			switch rng.Intn(4) {
			case 0:
				e := Entry{Addr: a, Target: zaddr.Addr(rng.Uint64()), Dir: 2, Length: uint8(rng.Intn(8))}
				vP, evP := packed.Insert(e)
				vR, evR := ref.Insert(e)
				if vP != vR || evP != evR {
					t.Fatalf("prot %v op %d: Insert diverged", prot, op)
				}
			case 1, 2:
				hitsP = packed.LookupLine(a, hitsP[:0])
				hitsR = ref.LookupLine(a, hitsR[:0])
				if !reflect.DeepEqual(hitsP, hitsR) {
					t.Fatalf("prot %v op %d: LookupLine diverged under faults:\npacked %+v\nmodel  %+v",
						prot, op, hitsP, hitsR)
				}
			case 3:
				eP, okP := packed.Find(a)
				eR, okR := ref.Find(a)
				if eP != eR || okP != okR {
					t.Fatalf("prot %v op %d: Find diverged under faults", prot, op)
				}
			}
		}
		if pS, rS := packed.Injector().Stats(), ref.inj.Stats(); pS != rS {
			t.Fatalf("prot %v: fault stats diverged: %+v vs %+v", prot, pS, rS)
		}
		if pR, rR := packed.Injector().Reads(), ref.inj.Reads(); pR != rR {
			t.Fatalf("prot %v: injector reads diverged: %d vs %d", prot, pR, rR)
		}
		if pS, rS := packed.met, ref.met; pS != rS {
			t.Fatalf("prot %v: table counters diverged: %+v vs %+v", prot, pS, rS)
		}
		if !reflect.DeepEqual(packed.State(), ref.State()) {
			t.Fatalf("prot %v: State diverged under identical fault seeds", prot)
		}
	}
}

// TestCorruptSlotMatchesModel walks every payload bit: a flip in a
// packed slot must change exactly the Entry bit the model's flipPayload
// changes, and nothing in the row's other slots (which share the slot's
// meta word). Randomized fault runs need not strike all 72 bits, so the
// walk is exhaustive.
func TestCorruptSlotMatchesModel(t *testing.T) {
	cfg := Config{Name: "bit", Rows: 16, Ways: 4, IndexHi: 55, IndexLo: 58}
	for b := uint64(0); b < payloadWidth; b++ {
		tbl := New(cfg)
		for w := 0; w < cfg.Ways; w++ {
			tbl.Insert(Entry{Addr: zaddr.Addr(0x4010 + 2*w), Target: 0x8888_0000_1234, Dir: 1, UsePHT: w%2 == 0, Length: 5})
		}
		i := tbl.RowFor(0x4010)*cfg.Ways + 1
		want := tbl.State()
		flipPayload(&want.Slots[i], b)
		tbl.corruptSlot(i, b)
		if got := tbl.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("payload bit %d: packed row %+v, model row %+v", b,
				got.Slots[i-1:i+cfg.Ways-1], want.Slots[i-1:i+cfg.Ways-1])
		}
	}
}

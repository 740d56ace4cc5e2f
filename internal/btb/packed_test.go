package btb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/zaddr"
)

// packedGeometries are the row widths the paper ships and studies:
// IndexLo 58/57/56 give 32/64/128-byte rows. Ways vary to cover the
// paper's 4-way and 6-way tables plus an odd width.
var packedGeometries = []Config{
	{Name: "g32", Rows: 16, Ways: 2, IndexHi: 55, IndexLo: 58},
	{Name: "g64", Rows: 16, Ways: 3, IndexHi: 54, IndexLo: 57},
	{Name: "g128", Rows: 16, Ways: 6, IndexHi: 53, IndexLo: 56},
}

// TestPackedRoundTripExtremes drives every Entry field at its extremes
// through the packed layout — install, Find, State, RestoreState — and
// demands exact reconstruction, across all three row widths and both
// tag policies (full and truncated). A direction above the 2-bit
// counter's range installs as its low two bits and must not smear into
// the neighboring flag and length fields.
func TestPackedRoundTripExtremes(t *testing.T) {
	dirs := []bht.Bimodal{bht.StrongNT, bht.WeakNT, bht.WeakT, bht.StrongT, 4, 0xFF}
	addrs := []zaddr.Addr{
		0,                  // all-zero address
		^zaddr.Addr(0) - 1, // every tag/offset bit set (2-byte aligned)
		0x0001_0000_0000_4242,
		0x7FFF_FFFF_FFFF_0006,
	}
	for _, geo := range packedGeometries {
		for _, tagBits := range []uint{0, 4} {
			cfg := geo
			cfg.TagBits = tagBits
			cfg.Name = fmt.Sprintf("%s/tag%d", geo.Name, tagBits)
			tbl := New(cfg)
			for _, a := range addrs {
				for _, dir := range dirs {
					for _, length := range []uint8{0, 1, 255} {
						for flags := 0; flags < 4; flags++ {
							e := Entry{
								Addr:   a,
								Target: ^zaddr.Addr(0),
								Dir:    dir,
								UsePHT: flags&1 != 0,
								UseCTB: flags&2 != 0,
								Length: length,
							}
							tbl.Reset()
							if _, ev := tbl.Insert(e); ev {
								t.Fatalf("%s: eviction from empty table", cfg.Name)
							}
							want := e
							want.Valid = true
							want.Dir &= 3
							got, ok := tbl.Find(a)
							if !ok || got != want {
								t.Fatalf("%s: Find(%#x) = %+v, %v; want %+v", cfg.Name, uint64(a), got, ok, want)
							}
							st := tbl.State()
							if err := tbl.RestoreState(st); err != nil {
								t.Fatalf("%s: RestoreState: %v", cfg.Name, err)
							}
							if st2 := tbl.State(); !reflect.DeepEqual(st, st2) {
								t.Fatalf("%s: State changed across restore round-trip", cfg.Name)
							}
							if got, ok := tbl.Find(a); !ok || got != want {
								t.Fatalf("%s: post-restore Find(%#x) = %+v, %v", cfg.Name, uint64(a), got, ok)
							}
						}
					}
				}
			}
		}
	}
}

// modelPair is a packed table and its reference model, fed identical
// operations.
type modelPair struct {
	packed *Table
	ref    *refTable
}

func newModelPair(cfg Config) modelPair {
	return modelPair{packed: New(cfg), ref: newRefTable(cfg)}
}

// randomEntry draws entries from a small address pool so rows collide,
// tags alias (under truncation), and LRU churn is constant.
func randomEntry(rng *rand.Rand, cfg Config) Entry {
	// Row, in-line offset, and a handful of distinct tag values; keep
	// addresses 2-byte aligned like real instruction addresses.
	a := zaddr.SetBits(0, cfg.IndexHi, cfg.IndexLo, uint64(rng.Intn(cfg.Rows)))
	a = zaddr.SetBits(a, cfg.IndexLo+1, 63, uint64(rng.Intn(cfg.LineBytes()))&^1)
	if cfg.IndexHi > 0 {
		a = zaddr.SetBits(a, 0, cfg.IndexHi-1, uint64(rng.Intn(6))*0x0101)
	}
	return Entry{
		Addr:   a,
		Target: zaddr.Addr(rng.Uint64()),
		Dir:    bht.Bimodal(rng.Intn(4)),
		UsePHT: rng.Intn(2) == 0,
		UseCTB: rng.Intn(2) == 0,
		Length: uint8(rng.Intn(256)),
	}
}

// TestStructVsPackedModel drives long randomized Insert / InsertSlot /
// Update / LookupLine / Find / Touch / Demote / Invalidate / Contains
// sequences against the packed table and the reference model and
// demands identical results at every step: identical hits, identical
// eviction victims, identical recency observations, and finally
// identical Stats and byte-identical State.
func TestStructVsPackedModel(t *testing.T) {
	for _, geo := range packedGeometries {
		for _, tagBits := range []uint{0, 3} {
			cfg := geo
			cfg.TagBits = tagBits
			t.Run(fmt.Sprintf("%s/tag%d", geo.Name, tagBits), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(0x9E3779B9 + tagBits + uint(len(geo.Name)))))
				pair := newModelPair(cfg)
				var hitsP, hitsR []Hit
				for op := 0; op < 20000; op++ {
					e := randomEntry(rng, cfg)
					switch rng.Intn(10) {
					case 0, 1, 2:
						vP, evP := pair.packed.Insert(e)
						vR, evR := pair.ref.Insert(e)
						if vP != vR || evP != evR {
							t.Fatalf("op %d: Insert(%+v) diverged: packed (%+v,%v) vs model (%+v,%v)",
								op, e, vP, evP, vR, evR)
						}
					case 3:
						vP, evP := pair.packed.InsertSlot(SlotOf(e))
						vR, evR := pair.ref.Insert(e)
						if evP != evR || evP && vP.Entry() != vR {
							t.Fatalf("op %d: InsertSlot diverged: (%+v,%v) vs (%+v,%v)", op, vP.Entry(), evP, vR, evR)
						}
					case 4:
						if okP, okR := pair.packed.Update(e), pair.ref.Update(e); okP != okR {
							t.Fatalf("op %d: Update diverged: %v vs %v", op, okP, okR)
						}
					case 5:
						hitsP = pair.packed.LookupLine(e.Addr, hitsP[:0])
						hitsR = pair.ref.LookupLine(e.Addr, hitsR[:0])
						if !reflect.DeepEqual(hitsP, hitsR) {
							t.Fatalf("op %d: LookupLine(%#x) diverged:\npacked %+v\nmodel  %+v",
								op, uint64(e.Addr), hitsP, hitsR)
						}
					case 6:
						gP, okP := pair.packed.Find(e.Addr)
						gR, okR := pair.ref.Find(e.Addr)
						if gP != gR || okP != okR {
							t.Fatalf("op %d: Find diverged: (%+v,%v) vs (%+v,%v)", op, gP, okP, gR, okR)
						}
					case 7:
						if okP, okR := pair.packed.Touch(e.Addr), pair.ref.Touch(e.Addr); okP != okR {
							t.Fatalf("op %d: Touch diverged", op)
						}
						// The slot forms take a way hint that may or may
						// not hold the branch; either way they must act
						// as the by-address calls do.
						s := Slot{Addr: e.Addr, Way: rng.Intn(cfg.Ways)}
						if okP, okR := pair.packed.TouchSlot(s), pair.ref.Touch(e.Addr); okP != okR {
							t.Fatalf("op %d: TouchSlot(way %d) diverged", op, s.Way)
						}
					case 8:
						if okP, okR := pair.packed.Demote(e.Addr), pair.ref.Demote(e.Addr); okP != okR {
							t.Fatalf("op %d: Demote diverged", op)
						}
						s := Slot{Addr: e.Addr, Way: rng.Intn(cfg.Ways)}
						if okP, okR := pair.packed.DemoteSlot(s), pair.ref.Demote(e.Addr); okP != okR {
							t.Fatalf("op %d: DemoteSlot(way %d) diverged", op, s.Way)
						}
					case 9:
						s := Slot{Addr: e.Addr, Way: rng.Intn(cfg.Ways)}
						if okP, okR := pair.packed.InvalidateSlot(s), pair.ref.Invalidate(e.Addr); okP != okR {
							t.Fatalf("op %d: InvalidateSlot(way %d) diverged", op, s.Way)
						}
						if okP, okR := pair.packed.Invalidate(e.Addr), pair.ref.Invalidate(e.Addr); okP != okR {
							t.Fatalf("op %d: Invalidate diverged", op)
						}
					}
					if op%97 == 0 {
						if cP, cR := pair.packed.Contains(e.Addr), pair.ref.Contains(e.Addr); cP != cR {
							t.Fatalf("op %d: Contains diverged", op)
						}
					}
				}
				if sP, sR := pair.packed.met, pair.ref.met; sP != sR {
					t.Fatalf("counters diverged: packed %+v vs model %+v", sP, sR)
				}
				if cP, cR := pair.packed.CountValid(), len(pair.ref.Entries()); cP != cR {
					t.Fatalf("CountValid diverged: %d vs %d", cP, cR)
				}
				stR := pair.ref.State()
				if !reflect.DeepEqual(pair.packed.State(), stR) {
					t.Fatal("State diverged from the model")
				}
				if err := pair.packed.CheckLRUInvariant(); err != nil {
					t.Fatalf("packed LRU invariant: %v", err)
				}
				if !reflect.DeepEqual(pair.packed.Entries(), pair.ref.Entries()) {
					t.Fatal("Entries diverged from the model")
				}
				// The model's state must restore into a fresh packed
				// table and read back unchanged.
				fresh := New(cfg)
				if err := fresh.RestoreState(stR); err != nil {
					t.Fatalf("restoring model state: %v", err)
				}
				if !reflect.DeepEqual(fresh.State(), stR) {
					t.Fatal("State changed across restore of the model state")
				}
			})
		}
	}
}

// TestPackedRestoreRejectsMisplacedEntry pins the packed layout's
// pre-pack placement check: a valid entry parked in a row its address
// does not index must be rejected, not silently re-addressed (the
// packed tag word would otherwise reconstruct a different address from
// the row position).
func TestPackedRestoreRejectsMisplacedEntry(t *testing.T) {
	cfg := Config{Name: "mis", Rows: 16, Ways: 2, IndexHi: 55, IndexLo: 58}
	tbl := New(cfg)
	st := tbl.State()
	bad := Entry{Valid: true, Addr: zaddr.SetBits(0, cfg.IndexHi, cfg.IndexLo, 5), Length: 4}
	st.Slots[0] = bad // row 0, but the address indexes row 5
	if err := tbl.RestoreState(st); err == nil {
		t.Fatal("RestoreState accepted a misplaced entry")
	}
}

// TestRestoreStateRejectsOutOfRange: a checkpoint is unchecksummed gob
// from disk, so RestoreState must reject any field the packed lanes
// cannot hold instead of truncating it into a different entry, must
// leave a rejected table untouched, and must name the table once.
func TestRestoreStateRejectsOutOfRange(t *testing.T) {
	cfg := Config{Name: "RST", Rows: 16, Ways: 2, IndexHi: 55, IndexLo: 58}
	addr := zaddr.SetBits(0x40, cfg.IndexHi, cfg.IndexLo, 3) // row 3
	for _, tc := range []struct {
		name   string
		mutate func(*State)
		ok     bool
	}{
		{"dir 3 is the widest counter", func(s *State) { s.Slots[6].Dir = 3 }, true},
		{"dir 4", func(s *State) { s.Slots[6].Dir = 4 }, false},
		{"dir 255", func(s *State) { s.Slots[6].Dir = 255 }, false},
		{"invalid slot garbage is dropped", func(s *State) { s.Slots[6] = Entry{Addr: 0x1234, Dir: 9, Length: 7} }, true},
		{"rank holds way 2 of 2", func(s *State) { s.Order[6] = 2 }, false},
		{"rank holds way 16", func(s *State) { s.Order[6] = 16 }, false},
		{"way twice in a row", func(s *State) { s.Order[7] = s.Order[6] }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := New(cfg)
			tbl.Insert(Entry{Addr: addr + 2, Target: 0x99, Dir: 1, Length: 4})
			before := tbl.State()
			st := tbl.State()
			st.Slots[6] = Entry{Valid: true, Addr: addr, Target: 0x77, Dir: 2, Length: 6}
			tc.mutate(&st)
			err := tbl.RestoreState(st)
			if tc.ok {
				if err != nil {
					t.Fatalf("RestoreState: %v", err)
				}
				if !st.Slots[6].Valid {
					st.Slots[6] = Entry{}
				}
				if got := tbl.State(); !reflect.DeepEqual(got, st) {
					t.Fatalf("restored state reads back as %+v, want %+v", got.Slots[6], st.Slots[6])
				}
				return
			}
			if err == nil {
				t.Fatal("RestoreState accepted an out-of-range field")
			}
			if msg := err.Error(); !strings.Contains(msg, "restored state is corrupt") || strings.Count(msg, cfg.Name) != 1 {
				t.Errorf("error %q: want one mention of %s and \"restored state is corrupt\"", msg, cfg.Name)
			}
			if !reflect.DeepEqual(tbl.State(), before) {
				t.Error("a rejected restore modified the table")
			}
		})
	}
}

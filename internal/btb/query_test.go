package btb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/zaddr"
)

// The search and predict paths read a row through CountFrom and Probe,
// a BTB2 transfer through ReadLine, and a first-level install through
// Fill. They replaced longer call sequences that decoded whole entries;
// the tests below replay random operations on two identical tables,
// one answering through the new query and one through the sequence it
// replaced, and require equal results, counters, state and fault
// strikes after every step.

// lookupLineScan is the row scan LookupLine ran before it became a
// decode of ReadLine's copy: one pass over the ways that strikes each
// valid slot and decodes every match into a Hit. It is the reference
// the replaced sequences below read rows through.
func lookupLineScan(t *Table, line zaddr.Addr, out []Hit) []Hit {
	t.met.lookups.Inc()
	row := t.RowFor(line)
	base := row * t.cfg.Ways
	key := t.packKey(line)
	mruWay := int(t.lru[row] & 0xF)
	struck := !t.quiet(t.cfg.Ways)
	found, valid := false, uint64(0)
	for w := 0; w < t.cfg.Ways; w++ {
		k := t.tags[base+w]
		if k&1 == 0 {
			continue
		}
		valid++
		if struck {
			if bits, ok := t.inj.Strike(); ok {
				t.strikeSlot(row, w, bits)
			}
			k = t.tags[base+w]
			if k&1 == 0 {
				continue
			}
		}
		if (k^key)&t.lineMask == 0 {
			h := Hit{Way: w, MRU: w == mruWay}
			t.unpackEntry(row, w, &h.Entry)
			out = append(out, h)
			found = true
		}
	}
	if !struck {
		t.inj.Pass(valid)
	}
	if found {
		t.met.lineHits.Inc()
	}
	return out
}

// searchCount is the sequence CountFrom replaced: LookupLine, then
// count the decoded entries at or after a's row offset.
func searchCount(t *Table, a zaddr.Addr, buf []Hit) (int, []Hit) {
	buf = lookupLineScan(t, a, buf[:0])
	n := 0
	for _, h := range buf {
		if zaddr.RowOffset(h.Entry.Addr) >= zaddr.RowOffset(a) {
			n++
		}
	}
	return n, buf
}

// predictProbe is the sequence Probe replaced: Find, then a LookupLine
// whose first hit decoding to exactly a gives the MRU flag, then Touch.
func predictProbe(t *Table, a zaddr.Addr, buf []Hit) (e Entry, mru, ok bool, _ []Hit) {
	if e, ok = t.Find(a); !ok {
		return Entry{}, false, false, buf
	}
	buf = lookupLineScan(t, a, buf[:0])
	for _, h := range buf {
		if h.Entry.Addr == a {
			mru = h.MRU
			break
		}
	}
	t.TouchSlot(Slot{Addr: a, Way: -1})
	return e, mru, true, buf
}

// queryGeometries are the first-level geometries the queries serve,
// with and without tag truncation (TagBits 2 makes the tags queryAddr
// draws alias in pairs), plus a 64-byte line.
var queryGeometries = []Config{
	BTB1Config,
	BTBPConfig,
	{Name: "BTB1-t2", Rows: 1024, Ways: 4, IndexHi: 49, IndexLo: 58, TagBits: 2},
	{Name: "BTBP-t2", Rows: 128, Ways: 6, IndexHi: 52, IndexLo: 58, TagBits: 2},
	{Name: "wide-t2", Rows: 64, Ways: 3, IndexHi: 52, IndexLo: 57, TagBits: 2},
}

// queryTags are tag-field values: pairs equal in their low two bits, so
// a TagBits-2 table aliases them while a full-tag table tells them apart.
var queryTags = [8]uint64{0, 1, 2, 3, 1<<9 | 0, 1<<9 | 1, 1<<20 | 2, 1<<30 | 3}

// queryAddr builds an address in one of four rows with one of the
// queryTags and the given in-line offset, so random operations keep
// colliding in the same few rows.
func queryAddr(cfg Config, row, tag, off uint8) zaddr.Addr {
	a := zaddr.SetBits(0, cfg.IndexHi, cfg.IndexLo, uint64(row%4)*uint64(cfg.Rows/4+1)%uint64(cfg.Rows))
	a = zaddr.SetBits(a, 0, cfg.IndexHi-1, queryTags[tag%8])
	return zaddr.SetBits(a, cfg.IndexLo+1, 63, uint64(off)%uint64(cfg.LineBytes()))
}

// queryPair is two tables built alike: next answers through the new
// queries, prev through the sequences they replaced.
type queryPair struct {
	next, prev *Table
	buf, hits2 []Hit
	row        [MaxWays]Slot
	// Outcome tallies, so a replay can show it reached every case:
	// searches that counted entries, probe hits, MRU probe hits, row
	// reads that copied slots, and fills that wrote.
	counted, hits, mruHits, copied, filled int
}

func newQueryPair(cfg Config, perM float64, p fault.Protection, seed uint64) *queryPair {
	q := &queryPair{next: New(cfg), prev: New(cfg)}
	if perM > 0 {
		q.next.SetInjector(fault.NewInjector("btb", perM, p, seed))
		q.prev.SetInjector(fault.NewInjector("btb", perM, p, seed))
	}
	return q
}

// step applies operation op at address a to both tables (writes carry
// an entry derived from v) and returns a description of the first
// disagreement, or "".
func (q *queryPair) step(op uint8, a zaddr.Addr, v uint8) string {
	e := Entry{
		Addr:   a,
		Target: zaddr.Addr(0x1000 + uint64(v)<<6),
		Dir:    bht.Bimodal(v & 3),
		UsePHT: v&4 != 0,
		UseCTB: v&8 != 0,
		Length: 2 + v>>4&6,
	}
	switch op % queryOps {
	case 0, 1:
		q.next.Insert(e)
		q.prev.Insert(e)
	case 2:
		q.next.InsertSlot(SlotOf(e))
		q.prev.InsertSlot(SlotOf(e))
	case 3:
		q.next.Update(e)
		q.prev.Update(e)
	case 4:
		q.next.DemoteSlot(Slot{Addr: a, Way: -1})
		q.prev.DemoteSlot(Slot{Addr: a, Way: -1})
	case 5:
		q.next.Invalidate(a)
		q.prev.Invalidate(a)
	case 6:
		got := q.next.CountFrom(a)
		var want int
		want, q.buf = searchCount(q.prev, a, q.buf)
		if got != want {
			return fmt.Sprintf("CountFrom(%#x) = %d, LookupLine+filter = %d", uint64(a), got, want)
		}
		if got > 0 {
			q.counted++
		}
	case 8:
		n := q.next.ReadLine(a, &q.row)
		q.buf = lookupLineScan(q.prev, a, q.buf[:0])
		if n != len(q.buf) {
			return fmt.Sprintf("ReadLine(%#x) copied %d slots, the row scan found %d", uint64(a), n, len(q.buf))
		}
		for i, h := range q.buf {
			want := Slot{Addr: h.Entry.Addr, Target: uint64(h.Entry.Target), Meta: packMeta(h.Entry), Way: h.Way}
			if q.row[i] != want || q.row[i].Entry() != h.Entry {
				return fmt.Sprintf("ReadLine(%#x) slot %d = %+v, the row scan decoded %+v", uint64(a), i, q.row[i], h)
			}
		}
		if n > 0 {
			q.copied++
		}
	case 9:
		q.hits2 = q.next.LookupLine(a, q.hits2[:0])
		q.buf = lookupLineScan(q.prev, a, q.buf[:0])
		if len(q.hits2) != len(q.buf) {
			return fmt.Sprintf("LookupLine(%#x) = %+v, the row scan %+v", uint64(a), q.hits2, q.buf)
		}
		for i := range q.buf {
			if q.hits2[i] != q.buf[i] {
				return fmt.Sprintf("LookupLine(%#x) = %+v, the row scan %+v", uint64(a), q.hits2, q.buf)
			}
		}
	case 10:
		got := q.next.Fill(SlotOf(e))
		want := !q.prev.Contains(a)
		if want {
			q.prev.Insert(e)
		}
		if got != want {
			return fmt.Sprintf("Fill(%#x) = %v, Contains+Insert wrote %v", uint64(a), got, want)
		}
		if got {
			q.filled++
		}
	default:
		ge, gm, gok := q.next.Probe(a)
		var we Entry
		var wm, wok bool
		we, wm, wok, q.buf = predictProbe(q.prev, a, q.buf)
		if ge != we || gm != wm || gok != wok {
			return fmt.Sprintf("Probe(%#x) = %+v,%v,%v; Find/LookupLine/Touch = %+v,%v,%v",
				uint64(a), ge, gm, gok, we, wm, wok)
		}
		if gok {
			q.hits++
		}
		if gm {
			q.mruHits++
		}
	}
	return q.diff(q.next.RowFor(a))
}

// queryOps is the number of operations step draws from.
const queryOps = 13

// diff compares the counters, the injectors and the lanes of row (every
// operation touches only its own row); checkState compares the whole
// tables.
func (q *queryPair) diff(row int) string {
	if g, w := q.next.met, q.prev.met; g != w {
		return fmt.Sprintf("counters %+v, want %+v", g, w)
	}
	if gi, wi := q.next.Injector(), q.prev.Injector(); gi != nil {
		if gi.Reads() != wi.Reads() || gi.Stats() != wi.Stats() {
			return fmt.Sprintf("injector reads %d %+v, want %d %+v", gi.Reads(), gi.Stats(), wi.Reads(), wi.Stats())
		}
	}
	if g, w := q.next.lru[row], q.prev.lru[row]; g != w {
		return fmt.Sprintf("row %d recency %#x, want %#x", row, g, w)
	}
	for i := row * q.next.cfg.Ways; i < (row+1)*q.next.cfg.Ways; i++ {
		if q.next.tags[i] != q.prev.tags[i] || q.next.targets[i] != q.prev.targets[i] ||
			q.next.metaField(i) != q.prev.metaField(i) {
			return fmt.Sprintf("slot %d diverged", i)
		}
	}
	return ""
}

func (q *queryPair) checkState(t *testing.T) {
	t.Helper()
	if !reflect.DeepEqual(q.next.State(), q.prev.State()) {
		t.Fatal("State diverged")
	}
}

// runQueryOps replays ops (five bytes each: op, row, tag, offset,
// entry content) on q and fails at the first divergence.
func runQueryOps(t *testing.T, q *queryPair, cfg Config, ops []byte) {
	t.Helper()
	for i := 0; i+5 <= len(ops); i += 5 {
		a := queryAddr(cfg, ops[i+1], ops[i+2], ops[i+3])
		if d := q.step(ops[i], a, ops[i+4]); d != "" {
			t.Fatalf("op %d (%d at %#x): %s", i/5, ops[i]%queryOps, uint64(a), d)
		}
	}
}

func TestQueriesMatchReplacedSequences(t *testing.T) {
	faults := []struct {
		perM float64
		p    fault.Protection
	}{
		{0, fault.Unprotected},
		// About one strike per 50 reads: most row reads fall inside the
		// injector's quiet window and pass their reads in one step, the
		// rest take the struck path, so one replay crosses both.
		{2e4, fault.Unprotected},
		{2e4, fault.Parity},
		{1e5, fault.Unprotected},
		{1e5, fault.Parity},
		{1e6, fault.Unprotected}, // a strike armed on every read
		{1e6, fault.Parity},
	}
	for _, cfg := range queryGeometries {
		for _, f := range faults {
			name := fmt.Sprintf("%s/%g/%v", cfg.Name, f.perM, f.p)
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(len(name))*7919 + int64(f.perM)))
				ops := make([]byte, 5*6000)
				r.Read(ops)
				q := newQueryPair(cfg, f.perM, f.p, 99)
				runQueryOps(t, q, cfg, ops)
				q.checkState(t)
				// Parity at a strike per read drops every entry on its
				// first read, so only that mode cannot hit.
				everyReadDrops := f.perM >= 1e6 && f.p == fault.Parity
				if !everyReadDrops && (q.counted == 0 || q.mruHits == 0 || q.hits == q.mruHits || q.copied == 0) {
					t.Fatalf("replay missed a case: %d counting searches, %d probe hits, %d of them MRU, %d row copies",
						q.counted, q.hits, q.mruHits, q.copied)
				}
				if q.filled == 0 {
					t.Fatal("replay never filled a slot")
				}
				if j := q.next.Injector(); j != nil && j.Stats().Injected == 0 {
					t.Fatal("injector never struck")
				}
			})
		}
	}
}

// TestProbeMRUUnderAliasing pins the exact-tag rule of Probe's MRU flag:
// with truncated tags an alias can satisfy the compare, but only the
// entry whose full tag matches reports MRU.
func TestProbeMRUUnderAliasing(t *testing.T) {
	cfg := queryGeometries[2] // BTB1 geometry, TagBits 2
	a := queryAddr(cfg, 1, 1, 8)
	alias := queryAddr(cfg, 1, 5, 8) // same low tag bits, same offset
	tbl := New(cfg)
	tbl.Insert(Entry{Addr: a, Target: 0x100})
	e, mru, ok := tbl.Probe(alias)
	if !ok || e.Addr != a {
		t.Fatalf("alias probe = %+v,%v; want a hit on %#x", e, ok, uint64(a))
	}
	if mru {
		t.Error("alias hit reported MRU; only an exact tag match may")
	}
	if _, mru, _ = tbl.Probe(a); !mru {
		t.Error("exact MRU hit not reported MRU")
	}
}

// FuzzLineQuery drives the same comparison from fuzzer-chosen
// operations, geometry and fault mode.
func FuzzLineQuery(f *testing.F) {
	f.Add([]byte{0, 1, 1, 4, 9, 6, 1, 1, 0, 0, 7, 1, 1, 4, 0}, uint8(0), uint8(0))
	f.Add([]byte{0, 2, 1, 4, 9, 0, 2, 5, 20, 3, 6, 2, 1, 0, 0, 7, 2, 5, 20, 0}, uint8(2), uint8(1))
	f.Add([]byte{1, 3, 3, 31, 1, 2, 3, 7, 2, 2, 7, 3, 3, 31, 0, 6, 3, 7, 0, 0}, uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, ops []byte, geom, mode uint8) {
		// Long replays add little over short ones on tables this size and
		// make the fuzzer's input minimization crawl.
		if len(ops) > 5*256 {
			ops = ops[:5*256]
		}
		cfg := queryGeometries[int(geom)%len(queryGeometries)]
		perM, p := []float64{0, 1e6, 1e6, 3e5, 2e4}[mode%5], fault.Protection(mode/5%2)
		q := newQueryPair(cfg, perM, p, uint64(mode))
		runQueryOps(t, q, cfg, ops)
		q.checkState(t)
	})
}

package fit

import (
	"fmt"
	"math/rand"
	"testing"

	"bulkpreload/internal/zaddr"
)

// linearTable is the FIT this package replaced, kept as the reference
// model: a linear scan of the slots per operation and the recency order
// as a slice of slot numbers (rank 0 = MRU) shifted on every promote.
type linearTable struct {
	entries []linearEntry
	lru     []int
	met     metrics // the table's counter set, stepped as the table should
}

type linearEntry struct {
	valid        bool
	branch, next zaddr.Addr
}

func newLinear(n int) *linearTable {
	m := &linearTable{entries: make([]linearEntry, n), lru: make([]int, n)}
	for i := range m.lru {
		m.lru[i] = i
	}
	return m
}

func (m *linearTable) Lookup(addr, next zaddr.Addr) bool {
	m.met.lookups.Inc()
	for i := range m.entries {
		e := &m.entries[i]
		if e.valid && e.branch == addr {
			if e.next == next {
				m.met.hits.Inc()
				m.promote(i)
				return true
			}
			m.met.stale.Inc()
			return false
		}
	}
	return false
}

func (m *linearTable) Train(addr, next zaddr.Addr) {
	for i := range m.entries {
		e := &m.entries[i]
		if e.valid && e.branch == addr {
			e.next = next
			m.promote(i)
			return
		}
	}
	victim := m.lru[len(m.lru)-1]
	m.entries[victim] = linearEntry{valid: true, branch: addr, next: next}
	m.met.installs.Inc()
	m.promote(victim)
}

func (m *linearTable) promote(slot int) {
	pos := 0
	for ; pos < len(m.lru); pos++ {
		if m.lru[pos] == slot {
			break
		}
	}
	copy(m.lru[1:pos+1], m.lru[0:pos])
	m.lru[0] = slot
}

func (m *linearTable) Reset() {
	*m = *newLinear(len(m.entries))
}

// fitDiff compares every slot, the recency order, the index and the
// counters of t against the model; it returns "" when they agree.
func fitDiff(t *Table, m *linearTable) string {
	if g, w := t.met, m.met; g != w {
		return fmt.Sprintf("counters %+v, want %+v", g, w)
	}
	for i, w := range m.entries {
		e := t.ents[i]
		if e.valid != w.valid || (w.valid && (e.branch != w.branch || e.next != w.next)) {
			return fmt.Sprintf("slot %d = %v %#x->%#x, want %v %#x->%#x",
				i, e.valid, uint64(e.branch), uint64(e.next), w.valid, uint64(w.branch), uint64(w.next))
		}
		if w.valid && t.find(w.branch) != int32(i) {
			return fmt.Sprintf("index finds %#x at %d, want slot %d", uint64(w.branch), t.find(w.branch), i)
		}
	}
	slot, prev := t.mru, int32(-1)
	for rank, want := range m.lru {
		if slot < 0 || int(slot) != want || t.ents[slot].newer != prev {
			return fmt.Sprintf("recency rank %d holds slot %d, want %d", rank, slot, want)
		}
		prev, slot = slot, t.ents[slot].older
	}
	if slot != -1 || t.lru != prev {
		return fmt.Sprintf("recency list ends at %d (lru %d), want %d", slot, t.lru, prev)
	}
	if n := t.CountValid(); n != countIndexed(t) {
		return fmt.Sprintf("%d valid slots but %d indexed", n, countIndexed(t))
	}
	return ""
}

func countIndexed(t *Table) int {
	n := 0
	for _, v := range t.index {
		if v != 0 {
			n++
		}
	}
	return n
}

// runFITOps replays ops (three bytes each: operation, branch, target)
// on a table and the model, checking them against each other after
// every operation. Branches draw from a pool a little larger than the
// table, so hits, stale entries and evictions all recur.
func runFITOps(t *testing.T, n int, ops []byte) {
	t.Helper()
	tbl, ref := New(n), newLinear(n)
	pool := uint64(n + n/2 + 2)
	for i := 0; i+3 <= len(ops); i += 3 {
		// Multiplying by a large odd constant makes nearby branches
		// collide in the index's home positions as well as differ.
		br := zaddr.Addr((uint64(ops[i+1]) % pool) * 0x2000_0000_0040)
		next := zaddr.Addr(0x1000 + uint64(ops[i+2]%4)*2)
		switch ops[i] % 8 {
		case 0, 1, 2:
			if g, w := tbl.Lookup(br, next), ref.Lookup(br, next); g != w {
				t.Fatalf("op %d: Lookup(%#x) = %v, want %v", i/3, uint64(br), g, w)
			}
		case 7:
			if ops[i+2] == 0 {
				tbl.Reset()
				ref.Reset()
				break
			}
			fallthrough
		default:
			tbl.Train(br, next)
			ref.Train(br, next)
		}
		if d := fitDiff(tbl, ref); d != "" {
			t.Fatalf("op %d (%d, branch %#x): %s", i/3, ops[i]%8, uint64(br), d)
		}
	}
}

// fitSizes covers the one-slot table (MRU is LRU), tiny tables, the
// shipped 64 and a size that is not a power of two.
var fitSizes = []int{1, 2, 3, 64, 100}

// TestFITMatchesLinearModel replays random operations on the O(1) FIT
// and the linear-scan table it replaced and requires the same answers,
// slot contents, recency order and counters after every operation.
func TestFITMatchesLinearModel(t *testing.T) {
	for _, n := range fitSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(n)))
			ops := make([]byte, 3*20000)
			r.Read(ops)
			runFITOps(t, n, ops)
		})
	}
}

// FuzzFIT drives the same comparison from fuzzer-chosen operations and
// table size.
func FuzzFIT(f *testing.F) {
	f.Add([]byte{3, 1, 1, 3, 2, 1, 0, 1, 1, 0, 2, 2, 3, 3, 0, 0, 1, 1}, uint8(1))
	f.Add([]byte{3, 1, 1, 3, 2, 1, 3, 3, 1, 0, 1, 1, 3, 4, 0, 0, 2, 1, 7, 0, 0, 3, 1, 1}, uint8(2))
	f.Add([]byte{3, 9, 2, 3, 7, 1, 0, 9, 3, 0, 9, 2, 3, 11, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, size uint8) {
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		runFITOps(t, fitSizes[int(size)%len(fitSizes)], ops)
	})
}

// Package fit implements the Fast Index Table: a 64-branch
// fully-associative cache that accelerates branch-prediction re-indexing
// for a subset of BTB1 branches. When a predicted-taken branch hits in
// the FIT, the search pipeline re-indexes with the FIT-supplied index in
// cycle b2 instead of waiting for hit detection in b3, making
// back-to-back predictions possible every other cycle (Table 1).
//
// The FIT learns (branch address -> next search address) pairs from
// completed predictions; a FIT hit is only honored when the supplied
// index matches what the full BTB1 search subsequently confirms, so a
// stale entry costs nothing but the lost acceleration.
//
// The table keeps true LRU order and costs O(1) per Lookup and Train: a
// hash index finds the branch's slot and a doubly linked recency list
// promotes it, in place of a scan over every slot. model_test.go keeps
// the linear-scan table as the reference the tests replay it against.
package fit

import (
	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// DefaultEntries is the zEC12 FIT size (a "64 branch Fast Index Table").
const DefaultEntries = 64

// entry is one FIT slot plus its links in the recency list.
type entry struct {
	valid  bool
	branch zaddr.Addr // predicted-taken branch address
	next   zaddr.Addr // search address to re-index to (the branch target)
	// newer and older are the neighbouring slots in recency order; -1
	// past the MRU and LRU ends.
	newer, older int32
}

// metrics is the FIT's registry-backed counter set.
type metrics struct {
	lookups  obs.Counter
	hits     obs.Counter
	stale    obs.Counter
	installs obs.Counter
}

// Table is the fast index table: fully associative with true LRU.
//
// Every operation is O(1). An open-addressed index (linear probing,
// at most a quarter full) maps a resident branch to its slot, and a
// doubly linked list through the slots keeps the exact recency order,
// so finding a branch and making it MRU touch a few words instead of
// scanning the table. Invalid slots start at the LRU end in slot order
// from the last slot down, so installs fill them from the last slot
// down before evicting anything.
type Table struct {
	ents []entry
	mru  int32 // head of the recency list
	lru  int32 // tail of the recency list: the next victim
	// index holds slot+1 of each resident branch at or after its home
	// position; 0 is an empty position.
	index []int32
	shift uint // 64 - log2(len(index)): the home position's hash shift
	met   metrics
}

// New builds a FIT with n entries.
func New(n int) *Table {
	if n <= 0 {
		panic("fit: entries must be positive")
	}
	size := 4
	for size < 4*n {
		size <<= 1
	}
	t := &Table{ents: make([]entry, n), index: make([]int32, size), shift: 64}
	for ; size > 1; size >>= 1 {
		t.shift--
	}
	t.Reset()
	return t
}

// Entries returns the table size.
func (t *Table) Entries() int { return len(t.ents) }

// RegisterMetrics enumerates the FIT counters (plus a computed occupancy
// gauge) into r under the given prefix, e.g. "fit_".
func (t *Table) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"lookups_total", "lookups", "accelerated re-index probes", &t.met.lookups)
	r.Counter(prefix+"hits_total", "lookups", "probes confirmed by the full BTB1 search", &t.met.hits)
	r.Counter(prefix+"stale_total", "lookups", "probes whose stored index was wrong", &t.met.stale)
	r.Counter(prefix+"installs_total", "entries", "new entries written", &t.met.installs)
	r.GaugeFunc(prefix+"occupancy_entries", "entries", "valid entries currently resident",
		func() int64 { return int64(t.CountValid()) })
}

// CountValid returns the number of valid entries.
func (t *Table) CountValid() int {
	n := 0
	for i := range t.ents {
		if t.ents[i].valid {
			n++
		}
	}
	return n
}

// Lookup checks whether the taken branch at addr has a FIT entry whose
// stored re-index address equals next. Only such confirmed hits earn the
// accelerated 2-cycle re-index; mismatches are counted as stale and do
// not change the recency order.
func (t *Table) Lookup(addr, next zaddr.Addr) bool {
	t.met.lookups.Inc()
	slot := t.find(addr)
	if slot < 0 {
		return false
	}
	if t.ents[slot].next != next {
		t.met.stale.Inc()
		return false
	}
	t.met.hits.Inc()
	t.promote(slot)
	return true
}

// Train records that the taken branch at addr redirected the search to
// next, installing or refreshing its FIT entry.
func (t *Table) Train(addr, next zaddr.Addr) {
	if slot := t.find(addr); slot >= 0 {
		t.ents[slot].next = next
		t.promote(slot)
		return
	}
	victim := t.lru
	e := &t.ents[victim]
	if e.valid {
		t.unindex(e.branch)
	}
	e.valid, e.branch, e.next = true, addr, next
	t.reindex(victim)
	t.met.installs.Inc()
	t.promote(victim)
}

// home returns addr's first probe position in the index (Fibonacci
// hashing: the multiply spreads every address bit into the top bits).
func (t *Table) home(addr zaddr.Addr) int {
	return int(uint64(addr) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding branch addr, or -1.
func (t *Table) find(addr zaddr.Addr) int32 {
	mask := len(t.index) - 1
	for i := t.home(addr); t.index[i] != 0; i = (i + 1) & mask {
		if slot := t.index[i] - 1; t.ents[slot].branch == addr {
			return slot
		}
	}
	return -1
}

// reindex enters slot's branch, which must not be indexed yet, at the
// first empty position from its home.
func (t *Table) reindex(slot int32) {
	mask := len(t.index) - 1
	i := t.home(t.ents[slot].branch)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = slot + 1
}

// unindex removes resident branch addr from the index. Linear probing
// needs no tombstones: each later entry of the probe run that may move
// back into the hole (its home is not cyclically within the hole's
// run after the hole) does, until the run ends.
func (t *Table) unindex(addr zaddr.Addr) {
	mask := len(t.index) - 1
	hole := t.home(addr)
	for t.ents[t.index[hole]-1].branch != addr {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// h stays put while its home lies cyclically in (hole, j].
		if h := t.home(t.ents[t.index[j]-1].branch); (j-h)&mask < (j-hole)&mask {
			continue
		}
		t.index[hole] = t.index[j]
		hole = j
	}
	t.index[hole] = 0
}

// promote moves slot to the MRU end of the recency list.
func (t *Table) promote(slot int32) {
	if slot == t.mru {
		return
	}
	e := &t.ents[slot]
	// Not the head, so e.newer is a slot.
	t.ents[e.newer].older = e.older
	if e.older >= 0 {
		t.ents[e.older].newer = e.newer
	} else {
		t.lru = e.newer
	}
	e.newer, e.older = -1, t.mru
	t.ents[t.mru].newer = slot
	t.mru = slot
}

// Reset invalidates every entry and restores the initial recency
// order: slot 0 MRU through the last slot LRU.
func (t *Table) Reset() {
	n := int32(len(t.ents))
	for i := range t.ents {
		t.ents[i] = entry{newer: int32(i) - 1, older: int32(i) + 1}
	}
	t.ents[n-1].older = -1
	t.mru, t.lru = 0, n-1
	clear(t.index)
	t.met = metrics{}
}

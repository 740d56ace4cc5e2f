package engine

import (
	"math/bits"
	"slices"

	"bulkpreload/internal/zaddr"
)

// seenInitSlots is addrSet's starting table size: room for 2k
// addresses at its load bound before the first growth.
const seenInitSlots = 1 << 12

// addrSet is the set of ever-executed branch addresses behind the
// compulsory/capacity surprise classification: open addressing with
// linear probing over a power-of-two []uint64, kept at most half full.
// Slot value 0 marks an empty slot, so address 0 is tracked by hasZero
// instead. reset empties it in place, keeping the grown table for the
// next run.
type addrSet struct {
	slots   []uint64
	shift   uint // 64 - log2(len(slots)): a hash's top bits pick the home slot
	n       int  // addresses held in slots (excluding address 0)
	hasZero bool
}

// reset empties the set, allocating the table only on first use.
func (s *addrSet) reset() {
	if s.slots == nil {
		s.alloc(seenInitSlots)
	} else {
		clear(s.slots)
	}
	s.n = 0
	s.hasZero = false
}

func (s *addrSet) alloc(size int) {
	s.slots = make([]uint64, size)
	s.shift = 64 - uint(bits.TrailingZeros(uint(size)))
}

// home returns a's first probe slot (Fibonacci hashing: the multiply
// spreads the low, densely used address bits into the top bits).
func (s *addrSet) home(a uint64) int {
	return int(a * 0x9E3779B97F4A7C15 >> s.shift)
}

// add inserts a and reports whether it was absent.
func (s *addrSet) add(a zaddr.Addr) bool {
	v := uint64(a)
	if v == 0 {
		added := !s.hasZero
		s.hasZero = true
		return added
	}
	i := s.find(v)
	if s.slots[i] == v {
		return false
	}
	s.slots[i] = v
	s.n++
	if 2*s.n > len(s.slots) {
		s.grow()
	}
	return true
}

// find returns the slot holding v, or the empty slot ending v's probe
// run. The table is never full, so the probe ends.
func (s *addrSet) find(v uint64) int {
	mask := len(s.slots) - 1
	i := s.home(v)
	for s.slots[i] != 0 && s.slots[i] != v {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table and re-inserts every address.
func (s *addrSet) grow() {
	old := s.slots
	s.alloc(2 * len(old))
	for _, v := range old {
		if v != 0 {
			s.slots[s.find(v)] = v
		}
	}
}

// len returns the number of addresses in the set.
func (s *addrSet) len() int {
	if s.hasZero {
		return s.n + 1
	}
	return s.n
}

// sorted returns the set's addresses in increasing order.
func (s *addrSet) sorted() []uint64 {
	out := make([]uint64, 0, s.len())
	if s.hasZero {
		out = append(out, 0)
	}
	for _, v := range s.slots {
		if v != 0 {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

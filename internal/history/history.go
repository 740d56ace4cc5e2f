// Package history maintains the global prediction-path history registers
// shared by the PHT and CTB. Per the paper, the PHT is "indexed based on
// the direction of the 12 previous predicted branches and the instruction
// addresses of the 6 previous taken branches" and the CTB "based on the
// instruction addresses of the 12 previous taken branches".
//
// Histories are updated speculatively at prediction time; Snapshot and
// Restore support repairing them when a misprediction restarts the search
// pipeline.
//
// Both indexes fold each recorded taken address down to the table's
// index width and rotate it by its age. A History keeps that folded
// path term for the PHT and the CTB width it was last asked about, and
// a taken RecordPrediction updates each term in O(1) (XOR out the
// address leaving the window, XOR in the new one, rotate by one), so an
// index costs one fold of the branch address instead of re-folding up
// to 12 path addresses. The first index at a new width, and the first
// after RestoreState or Reset, rebuilds its term from the address ring.
package history

import (
	"math/bits"

	"bulkpreload/internal/zaddr"
)

// Depth constants from the paper.
const (
	DirDepth       = 12 // predicted directions folded into the PHT index
	TakenAddrDepth = 12 // taken-branch addresses retained (CTB uses all 12, PHT the newest 6)
	PHTAddrDepth   = 6  // taken-branch addresses folded into the PHT index
)

// History is the global path history. The zero value is an empty history.
type History struct {
	// dirs holds the last DirDepth predicted directions; bit 0 is the
	// most recent.
	dirs uint16
	// taken is a ring of the last TakenAddrDepth taken-branch addresses;
	// head points at the most recent entry.
	taken [TakenAddrDepth]zaddr.Addr
	head  int
	count int // number of valid taken entries, saturates at TakenAddrDepth

	// pht and ctb are the folded path terms of the two indexes.
	pht, ctb pathTerm
}

// pathTerm is the path half of one index at one table width: the XOR
// over the depth newest taken addresses of each address folded to
// width bits and rotated left by its age plus one. width 0 means no
// width is tracked yet.
type pathTerm struct {
	width uint
	out   uint // depth % width: the rotation of the address leaving the window
	v     uint64
}

// Snapshot is an immutable copy of a History, used to repair state after
// a pipeline restart.
type Snapshot struct{ h History }

// RecordPrediction shifts a predicted direction into the history; for
// taken predictions the branch's instruction address is also recorded.
func (h *History) RecordPrediction(addr zaddr.Addr, taken bool) {
	h.dirs <<= 1
	if taken {
		h.dirs |= 1
	}
	h.dirs &= (1 << DirDepth) - 1
	if taken {
		h.pht.push(h, addr, PHTAddrDepth)
		h.ctb.push(h, addr, TakenAddrDepth)
		h.head = (h.head + 1) % TakenAddrDepth
		h.taken[h.head] = addr
		if h.count < TakenAddrDepth {
			h.count++
		}
	}
}

// push advances the term past a new taken address, before h's ring
// records it: the address leaving the depth window drops out, every
// other address ages by one rotation, and addr enters at age 0.
func (p *pathTerm) push(h *History, addr zaddr.Addr, depth int) {
	w := p.width
	if w == 0 {
		return
	}
	mask := uint64(1)<<w - 1
	v := p.v
	if old, ok := h.recentTaken(depth - 1); ok {
		x := fold(zaddr.Halfword(old), w)
		v ^= (x<<p.out | x>>(w-p.out)) & mask
	}
	v ^= fold(zaddr.Halfword(addr), w)
	p.v = (v<<1 | v>>(w-1)) & mask
}

// term returns the path term at width, rebuilding it from the ring
// when the term tracks another width.
func (p *pathTerm) term(h *History, width uint, depth int) uint64 {
	if p.width != width {
		p.width, p.out, p.v = width, uint(depth)%width, h.pathFold(width, depth)
	}
	return p.v
}

// pathFold computes a path term from scratch: the depth newest taken
// addresses, each folded to width bits and rotated by its age plus one.
func (h *History) pathFold(width uint, depth int) uint64 {
	var v uint64
	for i := 0; i < depth; i++ {
		a, ok := h.recentTaken(i)
		if !ok {
			break
		}
		v ^= rotl(fold(zaddr.Halfword(a), width), uint(i+1), width)
	}
	return v
}

// Snapshot captures the current state.
func (h *History) Snapshot() Snapshot { return Snapshot{h: *h} }

// Restore rewinds the history to a prior snapshot.
func (h *History) Restore(s Snapshot) { *h = s.h }

// State is the serializable (exported-field) mirror of a History, used
// by checkpoint encoding where Snapshot's unexported field cannot go.
type State struct {
	Dirs  uint16
	Taken [TakenAddrDepth]zaddr.Addr
	Head  int
	Count int
}

// State returns the current state in serializable form.
func (h *History) State() State {
	return State{Dirs: h.dirs, Taken: h.taken, Head: h.head, Count: h.count}
}

// RestoreState overwrites the history with a previously captured State.
// The path terms are dropped, so the next index rebuilds them from the
// restored ring.
func (h *History) RestoreState(s State) {
	*h = History{dirs: s.Dirs, taken: s.Taken, head: s.Head, count: s.Count}
}

// Reset clears all history.
func (h *History) Reset() { *h = History{} }

// fold XOR-folds a 64-bit value down to width bits.
func fold(v uint64, width uint) uint64 {
	var out uint64
	for v != 0 {
		out ^= v & ((1 << width) - 1)
		v >>= width
	}
	return out
}

// recentTaken returns the i-th most recent taken address (i = 0 is the
// newest); ok is false when fewer than i+1 taken branches have occurred.
func (h *History) recentTaken(i int) (zaddr.Addr, bool) {
	if i >= h.count {
		return 0, false
	}
	idx := (h.head - i + TakenAddrDepth) % TakenAddrDepth
	return h.taken[idx], true
}

// PHTIndex computes the PHT congruence class for the branch at addr in a
// table of the given size (power of two). The index mixes the branch
// address with the 12-direction history and the 6 most recent
// taken-branch addresses, each rotated by age so that path order matters.
func (h *History) PHTIndex(addr zaddr.Addr, entries int) int {
	width := log2(entries)
	v := fold(zaddr.Halfword(addr), width) ^ uint64(h.dirs) ^ h.pht.term(h, width, PHTAddrDepth)
	return int(v & uint64(entries-1))
}

// CTBIndex computes the CTB congruence class for the branch at addr: the
// path of the 12 previous taken-branch addresses, mixed with the branch
// address.
func (h *History) CTBIndex(addr zaddr.Addr, entries int) int {
	width := log2(entries)
	v := fold(zaddr.Halfword(addr), width) ^ h.ctb.term(h, width, TakenAddrDepth)
	return int(v & uint64(entries-1))
}

// DirBits returns the raw direction history register (diagnostics/tests).
func (h *History) DirBits() uint16 { return h.dirs }

// TakenDepthUsed returns how many taken addresses are currently recorded.
func (h *History) TakenDepthUsed() int { return h.count }

func rotl(v uint64, by, width uint) uint64 {
	by %= width
	mask := uint64(1)<<width - 1
	return ((v << by) | (v >> (width - by))) & mask
}

func log2(n int) uint {
	if n <= 0 || n&(n-1) != 0 {
		panic("history: table size must be a positive power of two")
	}
	return uint(bits.TrailingZeros(uint(n)))
}

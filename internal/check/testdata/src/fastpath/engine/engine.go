// Package engine mirrors the real engine's bulk fast path: the anchor
// rule pins //zbp:inert on every bulkWindow eligibility window, and
// cross-package callees are proven through facts exported when
// fastpath/lib was analyzed.
package engine

import (
	"fastpath/lib"
)

// Engine is a stand-in engine with a bulk fast path.
type Engine struct {
	cur   uint64
	calls int
}

// bulkWindow is the annotated anchor: reads, conversions, and inert
// callees (in-package and cross-package) only.
//
//zbp:inert
func (e *Engine) bulkWindow(addr uint64) (lo, span uint64) {
	if lib.Align(addr, 64) != e.cur {
		return 0, 0
	}
	return rowOf(addr), min(e.cur, 64)
}

// rowOf forwards to an inert cross-package callee.
//
//zbp:inert
func rowOf(addr uint64) uint64 { return lib.RowBase(addr) }

// Bare is a second engine whose eligibility window lost its
// annotation; the anchor rule refuses to let the proof root disappear.
type Bare struct{ cur uint64 }

func (b *Bare) bulkWindow(addr uint64) (lo, span uint64) { // want `bulk fast-path eligibility window bulkWindow must be annotated //zbp:inert`
	return b.cur, addr
}

// CrossBad calls a cross-package function that exported no inert fact.
//
//zbp:inert
func CrossBad(addr uint64) uint64 {
	return lib.Touch(addr) // want `inert function CrossBad calls lib.Touch, which is not annotated //zbp:inert in its own package`
}

// Mutates writes through its pointer receiver.
//
//zbp:inert
func (e *Engine) Mutates() {
	e.calls++ // want `inert function Mutates writes e.calls through a pointer`
}

//zbp:allow inertpath stale escape hatch // want `unused //zbp:allow inertpath`

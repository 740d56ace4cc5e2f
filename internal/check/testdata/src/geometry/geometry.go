// Package geometry is packlayout's raw-address fixture: shift/mask
// arithmetic on zaddr.Addr is rejected outside the zaddr helpers and
// outside function bodies bound to a //zbp:layout.
package geometry

import "zaddr"

func raw(a zaddr.Addr) uint64 {
	return uint64(a) >> 4 // want `raw ">>" arithmetic on a zaddr.Addr bypasses the zaddr bit-geometry helpers`
}

func rawMask(a zaddr.Addr) zaddr.Addr {
	return a & 31 // want `raw "&" arithmetic on a zaddr.Addr bypasses the zaddr bit-geometry helpers`
}

func viaHelpers(a zaddr.Addr) zaddr.Addr {
	return zaddr.RowBase(a) // ok: named helper keeps geometry auditable
}

func allowedFold(a zaddr.Addr) uint64 {
	//zbp:allow packlayout hash folding, not index geometry
	return uint64(a) >> 4
}

//zbp:allow packlayout stale escape hatch // want `unused //zbp:allow packlayout`
func nothingToAllow() int { return 1 }

// The lane a row offset and tag pack into.
//
//zbp:layout lane word:64 offset:0..4 tag:5..63
const laneBits = 64

// packedLane is bound to a //zbp:layout: packlayout checks its shifts
// and masks field by field, so the raw-arithmetic rule stays silent.
//
//zbp:layout lane pack
func packedLane(a zaddr.Addr) uint64 {
	return uint64(a&31) | uint64(a>>5)<<5 // ok: checked field-by-field against lane
}

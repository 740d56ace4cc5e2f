// Package geometry is the bitrange-analyzer fixture: zaddr.Bits /
// SetBits constant ranges and raw shift/mask arithmetic on zaddr.Addr.
package geometry

import "zaddr"

const btb1Hi, btb1Lo = 49, 58

func ranges(a zaddr.Addr, hi uint) {
	_ = zaddr.Bits(a, 49, 58)           // ok: the BTB1 index range
	_ = zaddr.Bits(a, btb1Hi, btb1Lo)   // ok: constants propagate through names
	_ = zaddr.Bits(a, 58, 49)           // want `zaddr bit range 58:49 has hi > lo`
	_ = zaddr.Bits(a, 10, 70)           // want `zaddr bit range 10:70 is out of range: lo must be <= 63`
	_ = zaddr.SetBits(a, 58, 49, 1)     // want `zaddr bit range 58:49 has hi > lo`
	_ = zaddr.Bits(a, hi, 58)           // ok: hi is not a compile-time constant
	_ = zaddr.SetBits(a, 47, 58, 0xFFF) // ok: the BTB2 index range
}

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
	//zbp:allow bitrange hash folding, not index geometry
	return uint64(a) >> 4
}

//zbp:allow bitrange stale escape hatch // want `unused //zbp:allow bitrange`
func nothingToAllow() int { return 1 }

// packedLane is bound to a //zbp:layout: the packlayout analyzer owns
// its shift/mask geometry, so the raw-arithmetic rule stands down
// without an allow escape.
//
//zbp:layout lane pack
func packedLane(a zaddr.Addr) uint64 {
	return uint64(a)>>4 | uint64(a&31)<<58 // ok: checked field-by-field by packlayout
}

// Package geometry is rawaddr's fixture: shift/mask arithmetic on
// zaddr.Addr is rejected outside the zaddr helpers.
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
	//zbp:allow rawaddr hash folding, not index geometry
	return uint64(a) >> 4
}

//zbp:allow rawaddr stale escape hatch // want `unused //zbp:allow rawaddr`
func nothingToAllow() int { return 1 }

package lockorder_test

import (
	"testing"

	"bulkpreload/internal/check/analysistest"
	"bulkpreload/internal/check/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "locks")
}

// TestLockOrderCrossPackage proves the interprocedural half: the cycle
// in lockdeps/svc is only visible through lockdeps/store's exported
// object fact (Get acquires Mu) and package lock-graph fact
// (Mu -> Mu2 from Both).
func TestLockOrderCrossPackage(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "lockdeps/store", "lockdeps/svc")
}

// TestLockOrderGuarded exercises the //zbp:guardedby and
// //zbp:caller-holds contracts and the unlock-on-every-path rule.
func TestLockOrderGuarded(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "guarded")
}

// TestLockOrderGuardedCrossPackage proves the guard fact path: user
// reads cell.Box.N, whose guard is known only through the exported
// object fact on the field.
func TestLockOrderGuardedCrossPackage(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "guarddeps/cell", "guarddeps/user")
}

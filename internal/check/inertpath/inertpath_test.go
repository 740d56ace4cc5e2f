package inertpath_test

import (
	"testing"

	"bulkpreload/internal/check/analysistest"
	"bulkpreload/internal/check/inertpath"
)

// TestInertPath exercises the purity proof across a package boundary:
// fastpath/lib is analyzed first so its //zbp:inert facts are in the
// store when fastpath/engine (which imports it) is checked — the same
// dependency order the zbpcheck driver guarantees. Covered: the
// bulkWindow anchor rule, in-package and cross-package inert callees,
// every rejected effect class, and the escape hatch.
func TestInertPath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), inertpath.Analyzer, "fastpath/lib", "fastpath/engine")
}

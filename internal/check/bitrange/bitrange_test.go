package bitrange_test

import (
	"testing"

	"bulkpreload/internal/check/analysistest"
	"bulkpreload/internal/check/bitrange"
)

// TestBitrange exercises constant bit-range propagation and the raw
// shift/mask check against the zaddr fixture stub.
func TestBitrange(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), bitrange.Analyzer, "geometry")
}

package obsreg_test

import (
	"testing"

	"bulkpreload/internal/check/analysistest"
	"bulkpreload/internal/check/obsreg"
)

// TestObsreg exercises metric-field registration tracking against the
// obs fixture stub: unregistered fields are flagged, wired and allowed
// fields are not, and a stale allow is itself a finding.
func TestObsreg(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), obsreg.Analyzer, "metrics")
}

// TestObsregSpans exercises the span-wiring rule against the span
// fixture stub: unexported recorder fields nothing assigns are flagged,
// while exported config fields and setter- or literal-wired ones pass.
func TestObsregSpans(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), obsreg.Analyzer, "spanwire")
}

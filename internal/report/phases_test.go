package report

import (
	"strings"
	"testing"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/stats"
)

// phaseSnap builds a synthetic interval snapshot with cumulative
// instruction/cycle totals and a flat outcome mix.
func phaseSnap(seq, insts, cycles, good, bad int64) obs.Snapshot {
	s := obs.Snapshot{Seq: seq, Values: []obs.Value{
		{Name: "engine_instructions_total", Type: obs.TypeCounter, Value: insts},
		{Name: "engine_cycles", Type: obs.TypeGauge, Value: cycles},
		{Name: stats.GoodPredicted.MetricName(), Type: obs.TypeCounter, Value: good},
		{Name: stats.BadWrongDir.MetricName(), Type: obs.TypeCounter, Value: bad},
	}}
	return s
}

func TestPhaseTimeline(t *testing.T) {
	snaps := []obs.Snapshot{
		phaseSnap(1, 1000, 1100, 90, 10),
		phaseSnap(2, 2000, 2100, 190, 20), // second phase: 1000 insts, 1000 cycles
		phaseSnap(3, 2000, 2100, 190, 20), // end-of-run duplicate: zero delta, skipped
	}
	var sb strings.Builder
	PhaseTimeline(&sb, snaps)
	out := sb.String()
	if !strings.Contains(out, "1.1000") {
		t.Errorf("phase 1 CPI (1100/1000) missing:\n%s", out)
	}
	if !strings.Contains(out, "1.0000") {
		t.Errorf("phase 2 CPI (1000/1000) missing:\n%s", out)
	}
	// The duplicate end-of-run snapshot must not render a row: the table
	// lines are the header plus two phases.
	if lines := strings.Count(out, "│"); lines != 3 {
		t.Errorf("got %d table lines, want header + 2 phases:\n%s", lines, out)
	}
	// Phase 1 bad share: 10 bad of 100 outcomes.
	if !strings.Contains(out, "10.0%") {
		t.Errorf("bad%% column missing:\n%s", out)
	}
}

func TestPhaseTimelineEmpty(t *testing.T) {
	var sb strings.Builder
	PhaseTimeline(&sb, nil)
	if !strings.Contains(sb.String(), "no snapshots") {
		t.Errorf("empty timeline message missing: %q", sb.String())
	}
}

func TestPhaseTimelineNoBranches(t *testing.T) {
	// Instructions advanced but no branch outcomes: the row renders with
	// a placeholder mix instead of dividing by zero.
	snaps := []obs.Snapshot{phaseSnap(1, 500, 600, 0, 0)}
	var sb strings.Builder
	PhaseTimeline(&sb, snaps)
	if !strings.Contains(sb.String(), "(no branches)") {
		t.Errorf("zero-branch phase not handled:\n%s", sb.String())
	}
}

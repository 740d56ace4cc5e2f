package report

import (
	"fmt"
	"io"
	"strings"

	"bulkpreload/internal/stats"

	"bulkpreload/internal/obs"
)

// phaseRow is the per-interval view PhaseTimeline derives from a pair of
// consecutive registry snapshots.
type phaseRow struct {
	seq          int64
	instructions int64
	cycles       int64
	outcomes     [stats.NumOutcomes]int64
	transfers    int64
	surprises    int64
}

func phaseRows(snaps []obs.Snapshot) []phaseRow {
	rows := make([]phaseRow, 0, len(snaps))
	var prev *obs.Snapshot
	for i := range snaps {
		d := snaps[i].Delta(prev)
		row := phaseRow{
			seq:          snaps[i].Seq,
			instructions: d.Counter("engine_instructions_total"),
			transfers:    d.Counter("hier_transferred_hits_total"),
			surprises:    d.Counter("hier_surprise_installs_total"),
		}
		// engine_cycles is a gauge (a clock level); delta it by hand.
		row.cycles = snaps[i].Counter("engine_cycles")
		if prev != nil {
			row.cycles -= prev.Counter("engine_cycles")
		}
		for o := stats.Outcome(0); o < stats.NumOutcomes; o++ {
			row.outcomes[o] = d.Counter(o.MetricName())
		}
		prev = &snaps[i]
		rows = append(rows, row)
	}
	return rows
}

// PhaseTimeline renders interval snapshots as a per-phase table: CPI and
// the Figure 4 outcome mix of each interval, exposing warm-up, phase
// changes, and steady state over a long simulation. Each snapshot in
// snaps closes one phase (the engine emits one every
// Params.SnapshotInterval instructions plus one at the end of the run).
func PhaseTimeline(w io.Writer, snaps []obs.Snapshot) {
	fmt.Fprintln(w, "phase timeline (per snapshot interval)")
	if len(snaps) == 0 {
		fmt.Fprintln(w, "  (no snapshots; set a snapshot interval)")
		return
	}
	fmt.Fprintf(w, "  %5s %12s %8s %7s │ %s\n",
		"phase", "insts", "CPI", "bad%", "outcome mix (good/dir/tgt/comp/lat/cap)")
	for _, r := range phaseRows(snaps) {
		if r.instructions == 0 {
			continue
		}
		total := int64(0)
		bad := int64(0)
		for o := stats.Outcome(0); o < stats.NumOutcomes; o++ {
			total += r.outcomes[o]
			if o.Bad() {
				bad += r.outcomes[o]
			}
		}
		badPct := 0.0
		if total > 0 {
			badPct = 100 * float64(bad) / float64(total)
		}
		mix := formatMix(r.outcomes, total)
		fmt.Fprintf(w, "  %5d %12d %8.4f %6.1f%% │ %s\n",
			r.seq, r.instructions,
			float64(r.cycles)/float64(r.instructions), badPct, mix)
	}
}

// mixOutcomes is the render order of the outcome-mix column: the good
// outcomes folded together, then each bad class.
var mixOutcomes = []stats.Outcome{
	stats.BadWrongDir, stats.BadWrongTarget,
	stats.BadSurpriseCompulsory, stats.BadSurpriseLatency, stats.BadSurpriseCapacity,
}

func formatMix(n [stats.NumOutcomes]int64, total int64) string {
	if total == 0 {
		return "(no branches)"
	}
	var sb strings.Builder
	good := n[stats.GoodPredicted] + n[stats.GoodSurpriseNT]
	fmt.Fprintf(&sb, "%5.1f%%", 100*float64(good)/float64(total))
	for _, o := range mixOutcomes {
		fmt.Fprintf(&sb, " %4.1f%%", 100*float64(n[o])/float64(total))
	}
	return sb.String()
}

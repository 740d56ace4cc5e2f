// Package report renders the experiment outputs as text tables and
// ASCII bar charts mirroring the paper's tables and figures. All
// formatters write to an io.Writer so the binaries and EXPERIMENTS.md
// generation share one code path.
package report

import (
	"fmt"
	"io"
	"strings"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/trace"
)

// bar renders a horizontal bar of width proportional to v/max (max
// chars wide at cap).
func bar(v, max float64, width int) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Figure2 renders the per-trace CPI-improvement chart: bottom bars are
// the BTB2 benefit, top bars the unrealistically-large-BTB1 benefit, and
// the right column the BTB2 effectiveness ratio — the layout of the
// paper's Figure 2.
func Figure2(w io.Writer, cs []sim.Comparison) {
	fmt.Fprintln(w, "Figure 2. CPI improvement vs configuration 1 (no BTB2)")
	fmt.Fprintln(w, "  (top bar: 24k BTB1 / config 3; bottom bar: BTB2 / config 2)")
	max := 0.0
	for _, c := range cs {
		if li := c.LargeImprovement(); li > max {
			max = li
		}
		if bi := c.BTB2Improvement(); bi > max {
			max = bi
		}
	}
	for _, c := range cs {
		fmt.Fprintf(w, "  %-26s large %6.2f%% |%-30s|\n",
			c.Trace, c.LargeImprovement(), bar(c.LargeImprovement(), max, 30))
		fmt.Fprintf(w, "  %-26s btb2  %6.2f%% |%-30s| effectiveness %5.1f%%\n",
			"", c.BTB2Improvement(), bar(c.BTB2Improvement(), max, 30), c.Effectiveness())
	}
	fmt.Fprintf(w, "  AVERAGE: btb2 %.2f%%, effectiveness %.1f%%\n",
		sim.AverageBTB2Improvement(cs), sim.AverageEffectiveness(cs))
}

// Figure3 renders the hardware-mode comparison: simulation-mode gain vs
// finite-L2 "hardware" gain for single-core WASDB+CBW2 and the 4-core
// Web CICS/DB2 aggregate.
func Figure3(w io.Writer, rows []sim.HardwareResult) {
	fmt.Fprintln(w, "Figure 3. Benefit of BTB2, simulation mode vs hardware mode")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s sim %6.2f%%   hardware %6.2f%%\n", r.Name, r.SimGain, r.HardwareGain)
	}
}

// Figure4 renders the bad-branch-outcome breakdown for one trace under
// two configurations (the paper's DayTrader DBServ chart).
func Figure4(w io.Writer, trace string, without, with engine.Result) {
	fmt.Fprintf(w, "Figure 4. Bad branch outcomes on %s (%% of all branch outcomes)\n", trace)
	row := func(tag string, r engine.Result) {
		o := &r.Outcomes
		fmt.Fprintf(w, "  %-10s total bad %5.1f%% = mispredict %4.1f%% (dir %4.1f%%, tgt %4.1f%%)"+
			" + surprise %5.1f%% (compulsory %4.1f%%, latency %4.1f%%, capacity %4.1f%%)\n",
			tag, 100*o.BadRate(),
			100*(o.Rate(stats.BadWrongDir)+o.Rate(stats.BadWrongTarget)),
			100*o.Rate(stats.BadWrongDir), 100*o.Rate(stats.BadWrongTarget),
			100*(o.Rate(stats.BadSurpriseCompulsory)+o.Rate(stats.BadSurpriseLatency)+o.Rate(stats.BadSurpriseCapacity)),
			100*o.Rate(stats.BadSurpriseCompulsory), 100*o.Rate(stats.BadSurpriseLatency),
			100*o.Rate(stats.BadSurpriseCapacity))
	}
	row("no BTB2", without)
	row("BTB2", with)
}

// Sweep renders a Figure 5/6/7-style parameter sweep; the shipping
// configuration is marked with an asterisk (the paper uses stripes).
func Sweep(w io.Writer, title string, pts []sim.SweepPoint) {
	fmt.Fprintln(w, title)
	max := 0.0
	for _, p := range pts {
		if p.Improvement > max {
			max = p.Improvement
		}
	}
	for _, p := range pts {
		mark := " "
		if p.Shipping {
			mark = "*"
		}
		fmt.Fprintf(w, "  %s %-22s %6.2f%% |%-30s|\n", mark, p.Label, p.Improvement,
			bar(p.Improvement, max, 30))
	}
}

// Table4 renders the trace-footprint table: paper targets vs measured
// values from the synthetic generators.
func Table4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4. Large footprint traces (paper target vs generated)")
	fmt.Fprintf(w, "  %-26s %12s %12s %12s %12s\n",
		"trace", "uniq(paper)", "uniq(gen)", "taken(paper)", "taken(gen)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %12d %12d %12d %12d\n",
			r.Name, r.PaperUnique, r.GenUnique, r.PaperTaken, r.GenTaken)
	}
}

// Table4Row pairs the paper's Table 4 targets with measured values.
type Table4Row struct {
	Name        string
	PaperUnique int
	GenUnique   int
	PaperTaken  int
	GenTaken    int
}

// MeasureTable4Row builds a Table4Row from a trace source and its paper
// targets.
func MeasureTable4Row(name string, paperUnique, paperTaken int, src trace.Source) Table4Row {
	st := trace.Measure(src)
	return Table4Row{
		Name:        name,
		PaperUnique: paperUnique,
		GenUnique:   st.UniqueBranches,
		PaperTaken:  paperTaken,
		GenTaken:    st.UniqueTaken,
	}
}

// Ablations renders the design-choice study.
func Ablations(w io.Writer, abs []sim.Ablation) {
	fmt.Fprintln(w, "Ablations. Average CPI improvement vs configuration 1")
	max := 0.0
	for _, a := range abs {
		if a.Improvement > max {
			max = a.Improvement
		}
	}
	for _, a := range abs {
		fmt.Fprintf(w, "  %-50s %6.2f%% |%-24s|\n", a.Name, a.Improvement, bar(a.Improvement, max, 24))
	}
}

// Result renders one engine result in full detail (cmd/zsim output).
func Result(w io.Writer, r engine.Result) {
	fmt.Fprintf(w, "trace %s, configuration %s\n", r.Trace, r.Config)
	fmt.Fprintf(w, "  instructions       %12d\n", r.Instructions)
	fmt.Fprintf(w, "  cycles             %15.2f\n", r.Cycles)
	fmt.Fprintf(w, "  CPI                %15.4f\n", r.CPI())
	fmt.Fprintf(w, "  penalty cycles     mispredict %.0f, surprise %.0f, icache %.0f\n",
		r.MispredictCycles, r.SurpriseCycles, r.ICacheCycles)
	o := &r.Outcomes
	fmt.Fprintf(w, "  branch outcomes    %d total, %.2f%% bad\n", o.Total(), 100*o.BadRate())
	for i := stats.Outcome(0); i < stats.NumOutcomes; i++ {
		fmt.Fprintf(w, "    %-26s %10d (%5.2f%%)\n", i.String(), o.N[i], 100*o.Rate(i))
	}
	m := r.Metrics
	fmt.Fprintf(w, "  predictor          %d predictions (BTB1 %d, BTBP %d), %d promotions\n",
		m.Counter("hier_predictions_total"), m.Counter("hier_btb1_hits_total"),
		m.Counter("hier_btbp_hits_total"), m.Counter("hier_promotions_total"))
	fmt.Fprintf(w, "  second level       %d transferred hits over %d row reads, %d BTB2 writes\n",
		m.Counter("hier_transferred_hits_total"), m.Counter("hier_transfer_reads_total"),
		m.Counter("hier_btb2_writes_total"))
	fmt.Fprintf(w, "  trackers           %d BTB1 misses, %d full / %d partial searches (%d upgraded, %d invalidated, %d dropped)\n",
		m.Counter("tracker_btb1_misses_total"), m.Counter("tracker_full_searches_total"),
		m.Counter("tracker_partial_searches_total"), m.Counter("tracker_upgrades_total"),
		m.Counter("tracker_invalidated_total"), m.Counter("tracker_dropped_total"))
	missRate := 0.0
	if n := m.Counter("l1i_accesses_total"); n > 0 {
		missRate = float64(m.Counter("l1i_misses_total")) / float64(n)
	}
	fmt.Fprintf(w, "  L1I                %.2f%% miss rate, %d prefetches (%d useful)\n",
		100*missRate, m.Counter("l1i_prefetches_total"), m.Counter("l1i_prefetched_hits_total"))
	if f := r.Fault; f.Injected > 0 || f.Detected > 0 {
		fmt.Fprintf(w, "  faults             injected %d, detected %d, recovered %d, silent %d\n",
			f.Injected, f.Detected, f.Recovered, f.Silent)
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; a test keeps the
// two in step.
type metricSpec struct {
	Name, Unit string
}

// endToEndMetrics come from untraced runs (--trace 0).
var endToEndMetrics = []metricSpec{
	{"records_per_s", "records/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run (--trace 1). README.md says
// where each is measured and which end-to-end metric it should move.
var perLayerMetrics = []metricSpec{
	{"workload.build_ms_per_unit", "ms"},
	{"workload.gen_ns_per_record", "ns"},
	{"trace.decode_ns_per_record", "ns"},
	{"engine.step_ns_per_record", "ns"},
	{"engine.bulk_fraction", "fraction"},
	{"engine.serial_ns_per_record", "ns"},
	{"core.search_ns_per_row", "ns"},
	{"core.predict_resolve_ns_per_branch", "ns"},
	{"core.btb1_hit_frac", "fraction"},
	{"core.transfer_reads_per_kinst", "1/kinst"},
	{"core.transferred_hits_per_read", "hits/read"},
	{"core.surprise_installs_per_kinst", "1/kinst"},
	{"btb.lookup_ns", "ns"},
	{"btb.insert_ns", "ns"},
	{"pht.lookup_ns", "ns"},
	{"ctb.lookup_ns", "ns"},
	{"fault.inject_ns_per_record", "ns"},
	{"fault.injected_total", "count"},
	{"fault.recovered_frac", "fraction"},
	{"sim.utilization", "fraction"},
	{"sim.tail_idle_s", "s"},
	{"sim.steals", "count"},
	{"runtime.alloc_bytes_per_record", "B"},
	{"runtime.gc_cycles_per_mrecord", "1/Mrecord"},
	{"model.fig2_avg_btb2_improvement_pct", "%"},
	{"model.fig2_avg_effectiveness_pct", "%"},
	{"bench.trace_overhead_frac", "fraction"},
}

// paperFig2Effectiveness is the paper's average BTB2 effectiveness
// (EXPERIMENTS.md, Figure 2), printed next to the modelled value: the
// model is checked against the paper, not against host speed.
const paperFig2Effectiveness = 52.0

// hostShape stamps every result: numbers taken on different shapes must
// not be compared.
type hostShape struct {
	NProc          int
	GOMAXPROCS     int
	Workers        int
	GoVersion      string
	CPUModel       string
	RecordsPerUnit int
	Seed           int64
}

func currentShape(workers, records int, seed int64) hostShape {
	return hostShape{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Workers:        workers,
		GoVersion:      runtime.Version(),
		CPUModel:       cpuModel(),
		RecordsPerUnit: records,
		Seed:           seed,
	}
}

func (h hostShape) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d workers=%d go=%s cpu=%q records_per_unit=%d seed=%d",
		h.NProc, h.GOMAXPROCS, h.Workers, h.GoVersion, h.CPUModel, h.RecordsPerUnit, h.Seed)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// reports "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS resets the kernel's record of the process's peak
// resident set (VmHWM) to the current resident set, so peakRSSMB then
// reports the peak of what ran in between. The process-lifetime peak
// would also count set-up's transient buffers.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak resident set since the last resetPeakRSS, in
// MiB, from the VmHWM line of /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak resident set: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak resident set: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak resident set: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

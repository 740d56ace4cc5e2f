// Command studybench is the repository's benchmark: it times one of
// three real studies end to end and checks every result against the
// serial engine.Run oracle.
//
//	go run . --workload fig2_replay --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics from untraced studies;
// --trace 1 alternates untraced and traced studies and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md
// describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// records (per unit) and workers are fixed by the workload and the
	// host; tests shrink them. 0 selects the workload's default records
	// and one worker per CPU.
	records int
	workers int
	dir     string // parent of the scratch directory for recorded traces
}

// report is one invocation's outcome.
type report struct {
	shape     hostShape
	attempted int
	failed    int
	metrics   map[string]float64
	specs     []metricSpec
	split     split // traced runs only
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "study to run: sweep_generate, fig2_replay or fault_study")
	flag.Int64Var(&o.seed, "seed", 0, "held-out seed: offsets every Table 4 profile seed (0 keeps the committed seeds)")
	flag.Float64Var(&o.seconds, "seconds", 12, "seconds of timed studies")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "studybench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced = traceFlag == 1

	rep, err := runBenchmark(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		os.Exit(2)
	}
	if err := writeResult(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		os.Exit(2)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// runBenchmark runs one invocation and prints its human-readable lines
// to w.
func runBenchmark(ctx context.Context, o options, w io.Writer) (report, error) {
	if o.records <= 0 {
		o.records = defaultRecords[o.workload]
	}
	if o.workers <= 0 {
		o.workers = runtime.NumCPU()
	}
	s, err := newStudy(o.workload, o.workers, o.records, o.seed)
	if err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(o.dir, "studybench-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)

	workers := o.workers
	if o.workload == wlFault {
		workers = runtime.GOMAXPROCS(0) // FaultStudy sizes its own pool
	}
	rep := report{shape: currentShape(workers, o.records, o.seed), metrics: map[string]float64{}}
	fmt.Fprintf(w, "studybench: workload=%s traced=%v\n", o.workload, o.traced)
	fmt.Fprintf(w, "host: %s\n", rep.shape)
	if o.traced {
		err = tracedRun(ctx, w, s, o, dir, &rep)
	} else {
		err = untracedRun(ctx, w, s, o, dir, &rep)
	}
	if err != nil {
		return rep, err
	}
	for _, spec := range rep.specs {
		v, ok := rep.metrics[spec.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s not measured (%v)", spec.Name, v)
		}
	}
	fmt.Fprintf(w, "error_rate: %g (%d failed or differing of %d units)\n",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, spec := range rep.specs {
		fmt.Fprintf(w, "%-38s %14.6g %s\n", spec.Name, rep.metrics[spec.Name], spec.Unit)
	}
	if v, ok := rep.metrics["model.fig2_avg_effectiveness_pct"]; ok && o.workload == wlFig2 {
		fmt.Fprintf(w, "model.fig2_avg_effectiveness_pct %.1f%% vs the paper's %.0f%%\n", v, paperFig2Effectiveness)
	}
	return rep, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, w io.Writer, s study, o options, dir string, rep *report) error {
	rep.specs = endToEndMetrics
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := s.setUp(dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// One untimed warm-up study: the first study after set-up runs about
	// 20% slow.
	s.run(ctx)
	var rates, peaks []float64
	var measured time.Duration
	for len(rates) == 0 || measured.Seconds() < o.seconds {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t0 := time.Now()
		records := s.run(ctx)
		d := time.Since(t0)
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		measured += d
		rates = append(rates, float64(records)/d.Seconds())
		peaks = append(peaks, peak)
		a, f := s.check()
		rep.attempted += a
		rep.failed += f
	}
	// The best study: on a shared host other tenants slow some studies
	// down, by a third at times, and never speed one up.
	rep.metrics["records_per_s"] = slices.Max(rates)
	rep.metrics["setup_s"] = median(setups)
	// A study's peak depends on which units happen to overlap on the
	// workers; the mean over the run's studies smooths that out.
	rep.metrics["peak_rss_mb"] = mean(peaks)
	fmt.Fprintf(w, "studies: %d timed, records/s min %.4g median %.4g max %.4g; %d set-ups\n",
		len(rates), slices.Min(rates), median(rates), slices.Max(rates), len(setups))
	return nil
}

// tracedRun alternates untraced and traced studies, then runs the
// isolated probes, and derives the per-layer metrics.
func tracedRun(ctx context.Context, w io.Writer, s study, o options, dir string, rep *report) error {
	rep.specs = perLayerMetrics
	if err := s.setUp(dir); err != nil {
		return err
	}
	s.run(ctx) // warm-up

	var plain, traced []float64
	var sp split
	var allocBytes, gcCycles uint64
	var plainRecords int64
	var before, after runtime.MemStats
	var measured time.Duration
	for len(traced) == 0 || measured.Seconds() < o.seconds {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		records := s.run(ctx)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcCycles += uint64(after.NumGC - before.NumGC)
		plainRecords += records
		plain = append(plain, d.Seconds())
		a, f := s.check()
		rep.attempted += a
		rep.failed += f

		t0 = time.Now()
		one, err := s.runTraced(ctx)
		dt := time.Since(t0)
		if err != nil {
			return err
		}
		// The study's own wall time: the fault study's first traced run
		// also builds its serial oracle.
		traced = append(traced, one.wall.Seconds())
		a, f = s.check()
		rep.attempted += a
		rep.failed += f
		sp.add(one)
		measured += d + dt
	}
	rep.split = sp

	// Isolated probes first; then what the study's own results and its
	// split measure in place overrides them for the layers it runs.
	m := rep.metrics
	prof, params := s.probe()
	if err := runProbes(prof, params, m); err != nil {
		return err
	}
	s.layerMetrics(m)
	sp.metrics(m)
	m["runtime.alloc_bytes_per_record"] = ratio(float64(allocBytes), float64(plainRecords))
	m["runtime.gc_cycles_per_mrecord"] = ratio(1e6*float64(gcCycles), float64(plainRecords))
	m["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
	fmt.Fprintf(w, "studies: %d untraced, %d traced (medians)\n", len(plain), len(traced))
	fmt.Fprintf(w, "split: %s\n", sp)
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the final JSON line.
func writeResult(w io.Writer, rep report) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]jsonMetric, len(rep.specs)),
	}
	for _, spec := range rep.specs {
		out.Metrics[spec.Name] = jsonMetric{Value: rep.metrics[spec.Name], Unit: spec.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

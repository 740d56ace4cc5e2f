// Command zsim runs one branch-prediction configuration over one
// workload and prints the detailed result: CPI, the Figure 4 outcome
// breakdown, and per-structure statistics.
//
// Usage:
//
//	zsim -trace zos-daytrader-dbserv -config btb2 -insts 1000000
//	zsim -file trace.zbpt -config no-btb2
//	zsim -config btb2 -interval 100000                # phase timeline
//	zsim -config btb2 -jsonl events.jsonl             # streaming trace
//	zsim -config btb2 -chrome trace.json              # Perfetto trace
//	zsim -config btb2 -metrics-addr localhost:9090    # live /metrics
//	zsim -config btb2 -fault-rate 10 -fault-protect parity   # soft errors
//	zsim -config btb2 -checkpoint run.ckpt -checkpoint-every 500000
//	zsim -config btb2 -resume run.ckpt                # continue after a crash
//	zsim -file damaged.zbpt -salvage                  # use the valid prefix
//	zsim -file huge.zbpt -stream                      # constant-memory decode
//	zsim -compare -workers 0                          # fan configs across cores
//	zsim -spans spans.json                            # hierarchical span trace (Perfetto)
//	zsim -metrics-addr :9090 -pprof                   # live pprof + runtime metrics
//	zsim -perfstat gate                               # benchmark regression gate
//	zsim -list
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/export"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/report"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

func main() {
	var (
		traceName = flag.String("trace", "zos-daytrader-dbserv", "Table 4 workload name (see -list)")
		file      = flag.String("file", "", "ZBPT trace file (overrides -trace)")
		config    = flag.String("config", "btb2", "configuration: no-btb2, btb2, large-btb1")
		insts     = flag.Int("insts", workload.DefaultInstructions, "dynamic instructions to simulate")
		warmup    = flag.Int64("warmup", 100_000, "instructions excluded from reported counts")
		hardware  = flag.Bool("hardware", false, "hardware mode: finite L2 instruction cache")
		events    = flag.Int("events", 0, "print the first N hierarchy events (0 = off)")
		timeline  = flag.Int("timeline", 0, "render the bulk-preload timeline of the last N 4KB blocks (0 = off)")
		interval  = flag.Int64("interval", 0, "snapshot the metric registry every N instructions and render the phase timeline (0 = off)")
		jsonlPath = flag.String("jsonl", "", "stream every hierarchy event to this file as JSON Lines")
		chromePtr = flag.String("chrome", "", "stream every hierarchy event to this file in Chrome trace_event format (load in Perfetto)")
		metrics   = flag.String("metrics-addr", "", "serve live registry state over HTTP at this address (/metrics, /snapshot, /debug/vars)")
		compare   = flag.Bool("compare", false, "run all three Table 3 configurations and print the comparison")
		specFile  = flag.String("spec", "", "run a JSON experiment spec (overrides other flags)")
		list      = flag.Bool("list", false, "list Table 4 workload names and exit")

		faultRate    = flag.Float64("fault-rate", 0, "inject soft errors at this base rate (faults per million entry reads; 0 = off)")
		faultProtect = flag.String("fault-protect", "unprotected", "array protection model: unprotected, parity")
		faultSeed    = flag.Uint64("fault-seed", 1, "seed for the deterministic fault-arrival streams")

		ckptPath  = flag.String("checkpoint", "", "persist periodic checkpoints to this file (atomic replace)")
		ckptEvery = flag.Int64("checkpoint-every", 1_000_000, "instructions between checkpoints (with -checkpoint)")
		resume    = flag.String("resume", "", "resume the simulation from this checkpoint file")
		salvage   = flag.Bool("salvage", false, "with -file: tolerate a truncated/corrupt trace tail, simulating the valid prefix")

		workers = flag.Int("workers", 1, "with -compare: fan the three configurations across this many workers (0 = GOMAXPROCS)")
		stream  = flag.Bool("stream", false, "with -file: stream the trace from disk through the bulk batch decoder in constant memory (tolerates a damaged tail like -salvage)")

		spansPath = flag.String("spans", "", "write a hierarchical span trace (study/worker/unit/phase/batch, steal instants) to this file: .jsonl = JSON Lines, anything else = Chrome trace_event for Perfetto; routes the run through the batched scheduler")
		pprofFlag = flag.Bool("pprof", false, "with -metrics-addr: also expose net/http/pprof profiles and /debug/runtime (runtime/metrics as JSON)")

		perfstatMode   = flag.String("perfstat", "", "benchmark-trajectory mode: run (print one entry as JSON), gate (compare against the trajectory baseline, exit 1 on regression), append (measure and append to the trajectory)")
		perfstatFile   = flag.String("perfstat-file", "BENCH_parallel.json", "trajectory file read by -perfstat gate and written by -perfstat append")
		perfstatOut    = flag.String("perfstat-out", "", "also write the freshly measured entry as JSON to this file (any -perfstat mode)")
		perfstatRuns   = flag.Int("perfstat-runs", 3, "median-of-N repetitions per -perfstat invocation")
		perfstatThresh = flag.Float64("perfstat-threshold", 0.15, "with -perfstat gate: max fractional drop in throughput metrics before the gate fails")
		perfstatLabel  = flag.String("perfstat-label", "", "with -perfstat run/append: free-form label recorded in the entry (e.g. a PR number)")
	)
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}

	if *perfstatMode != "" {
		// -workers defaults to 1 for -compare; perfstat wants GOMAXPROCS
		// unless the user explicitly asked for a worker count.
		pw := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				pw = *workers
			}
		})
		os.Exit(runPerfstat(perfstatConfig{
			mode:      *perfstatMode,
			file:      *perfstatFile,
			out:       *perfstatOut,
			runs:      *perfstatRuns,
			threshold: *perfstatThresh,
			label:     *perfstatLabel,
			workers:   pw,
		}))
	}

	if *specFile != "" {
		spec, err := sim.LoadSpec(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		r, err := spec.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		report.Result(os.Stdout, r)
		return
	}

	cfgs := sim.Table3()
	if _, ok := cfgs[*config]; !ok {
		fmt.Fprintf(os.Stderr, "zsim: unknown configuration %q (want %s)\n",
			*config, strings.Join([]string{sim.ConfigNoBTB2, sim.ConfigBTB2, sim.ConfigLargeL1}, ", "))
		os.Exit(2)
	}

	if *interval < 0 {
		fmt.Fprintln(os.Stderr, "zsim: -interval must be non-negative")
		os.Exit(2)
	}

	if *stream && *file == "" {
		fmt.Fprintln(os.Stderr, "zsim: -stream requires -file")
		os.Exit(2)
	}

	if *pprofFlag && *metrics == "" {
		fmt.Fprintln(os.Stderr, "zsim: -pprof requires -metrics-addr")
		os.Exit(2)
	}

	if *spansPath != "" && *resume != "" {
		fmt.Fprintln(os.Stderr, "zsim: -spans is incompatible with -resume (the traced scheduler starts units from instruction zero)")
		os.Exit(2)
	}

	if *compare {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "resume", "checkpoint", "events", "timeline", "interval", "jsonl", "chrome", "metrics-addr":
				fmt.Fprintf(os.Stderr, "zsim: -%s is a single-run flag; -compare does not take it\n", f.Name)
				os.Exit(2)
			}
		})
	}

	params := engine.DefaultParams()
	if *hardware {
		params = engine.HardwareParams()
	}
	params.WarmupInstructions = *warmup

	// Soft-error injection.
	if *faultRate > 0 {
		var prot fault.Protection
		switch *faultProtect {
		case "unprotected":
			prot = fault.Unprotected
		case "parity":
			prot = fault.Parity
		default:
			fmt.Fprintf(os.Stderr, "zsim: unknown -fault-protect %q (want unprotected, parity)\n", *faultProtect)
			os.Exit(2)
		}
		params.Fault = fault.ZEC12Rates(*faultSeed, *faultRate, prot)
	}

	src, err := loadSource(*file, *traceName, *insts, *salvage, *stream)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsim:", err)
		os.Exit(1)
	}
	// A streamed source holds the file open for the whole run; a damaged
	// tail surfaces after the pass, like -salvage.
	defer func() {
		if fs, ok := src.(*trace.FileSource); ok {
			if derr := fs.Err(); derr != nil {
				fmt.Fprintln(os.Stderr, "zsim: stream salvage:", derr)
			}
			if cerr := fs.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "zsim: stream close:", cerr)
			}
		}
	}()

	if *compare {
		var spanTrace *span.Trace
		if *spansPath != "" {
			spanTrace = span.NewTrace()
		}
		c := compareConfigs(src, *file, params, *workers, spanTrace)
		fmt.Println(c)
		fmt.Printf("  CPI: %s %.4f | %s %.4f | %s %.4f\n",
			sim.ConfigNoBTB2, c.Base.CPI(), sim.ConfigBTB2, c.BTB2.CPI(),
			sim.ConfigLargeL1, c.LargeBTB1.CPI())
		if spanTrace != nil {
			if err := writeSpans(*spansPath, spanTrace); err != nil {
				fmt.Fprintln(os.Stderr, "zsim:", err)
				os.Exit(1)
			}
			fmt.Printf("spans: wrote %d events to %s\n", spanTrace.Len(), *spansPath)
		}
		return
	}

	// Periodic checkpoints, atomically replaced so a crash mid-write
	// keeps the previous good one.
	if *ckptPath != "" {
		if *ckptEvery <= 0 {
			fmt.Fprintln(os.Stderr, "zsim: -checkpoint-every must be positive")
			os.Exit(2)
		}
		params.CheckpointInterval = *ckptEvery
		params.CheckpointSink = func(ck *engine.Checkpoint) {
			if err := engine.WriteCheckpointFile(*ckptPath, ck); err != nil {
				fmt.Fprintln(os.Stderr, "zsim: checkpoint:", err)
			}
		}
	}

	// Compose the event tracer pipeline: an in-memory buffer for -events
	// and -timeline, plus streaming exporters, all fed through one tee.
	var (
		tracers   core.TeeTracer
		collector *core.CollectTracer
		jsonl     *export.JSONL
		chrome    *export.Chrome
	)
	if *events > 0 || *timeline > 0 {
		max := *events
		if *timeline > 0 {
			// Timeline stories need a deep event window; ring mode keeps
			// the *last* window so long runs show steady state, not warm-up.
			max = 200_000
		}
		collector = &core.CollectTracer{Max: max, Ring: *timeline > 0}
		tracers = append(tracers, collector)
	}
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		jsonl = export.NewJSONL(f)
		tracers = append(tracers, jsonl)
	}
	if *chromePtr != "" {
		f, err := os.Create(*chromePtr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		chrome = export.NewChrome(f)
		tracers = append(tracers, chrome)
	}
	switch len(tracers) {
	case 0:
	case 1:
		params.EventTracer = tracers[0]
	default:
		params.EventTracer = tracers
	}

	// Live introspection: snapshots published to an atomic pointer, read
	// by the HTTP handlers — the simulation goroutine never shares its
	// metrics directly.
	params.SnapshotInterval = *interval
	var (
		live   *obs.Live
		server *obs.Server
	)
	if *metrics != "" {
		live = &obs.Live{}
		expvar.Publish("zsim", live.Var())
		if params.SnapshotInterval == 0 {
			params.SnapshotInterval = 100_000
		}
		params.SnapshotSink = live.Publish
		server = obs.NewServer(live)
		if *pprofFlag {
			server.EnableProfiling()
		}
		addr, err := server.Start(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		fmt.Printf("serving live metrics on http://%s/metrics\n", addr)
		if *pprofFlag {
			fmt.Printf("serving profiles on http://%s/debug/pprof/ and runtime metrics on http://%s/debug/runtime\n", addr, addr)
		}
	}

	var r engine.Result
	var spanTrace *span.Trace
	var from *engine.Checkpoint
	if *resume != "" {
		ck, err := engine.ReadCheckpointFile(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		fmt.Printf("resuming %s from %d instructions\n", ck.Trace, ck.Instructions)
		from = ck
	}
	if from == nil {
		// A fresh run is one unit on the scheduler. With -spans it is
		// traced: the span tree covers scheduling, the engine phases and
		// batches, and (with -stream) the decoder refills.
		if *spansPath != "" {
			spanTrace = span.NewTrace()
		}
		unit := sim.Unit{
			Label:      src.Name() + "/" + *config,
			NewSource:  func() trace.Source { return src },
			Config:     cfgs[*config],
			Params:     params,
			ConfigName: *config,
		}
		res, _, err := sim.RunUnitsTraced(context.Background(), 1, []sim.Unit{unit}, spanTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		r = res[0]
	} else {
		var err error
		r, err = engine.New(cfgs[*config], params).RunBatched(context.Background(), src, *config, from)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
	}
	report.Result(os.Stdout, r)
	if live != nil && r.Metrics != nil {
		live.Publish(*r.Metrics)
	}
	if server != nil {
		// The simulation is done: let in-flight scrapes finish, then
		// release the listener.
		if err := server.Shutdown(5 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "zsim: metrics server shutdown:", err)
		}
	}
	if *interval > 0 {
		fmt.Println()
		report.PhaseTimeline(os.Stdout, r.Snapshots)
	}
	if collector != nil && *events > 0 {
		ordered := collector.Ordered()
		n := *events
		if n > len(ordered) {
			n = len(ordered)
		}
		fmt.Printf("first %d hierarchy events:\n", n)
		for _, ev := range ordered[:n] {
			fmt.Println(" ", ev)
		}
	}
	if collector != nil && *timeline > 0 {
		report.TransferTimeline(os.Stdout, collector.Ordered(), *timeline)
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "zsim: jsonl export:", err)
			os.Exit(1)
		}
		reconcile("jsonl", jsonl.Counts(), r.Metrics)
	}
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "zsim: chrome export:", err)
			os.Exit(1)
		}
	}
	if spanTrace != nil {
		if err := writeSpans(*spansPath, spanTrace); err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: wrote %d events to %s\n", spanTrace.Len(), *spansPath)
	}
}

// reconcile cross-checks exported per-kind event counts against the
// final registry counters — the two observability planes (streaming
// trace, metrics registry) must agree event for event.
func reconcile(what string, counts [core.NumEventKinds]int64, final *obs.Snapshot) {
	if final == nil {
		return
	}
	for k := 0; k < core.NumEventKinds; k++ {
		kind := core.EventKind(k)
		if got, want := counts[k], final.Counter(kind.MetricName()); got != want {
			fmt.Fprintf(os.Stderr, "zsim: %s export disagrees with registry for %s: %d events vs counter %d\n",
				what, kind, got, want)
		}
	}
}

// compareConfigs runs the three Table 3 configurations across the
// work-stealing scheduler, each run reading src or a fork of it, so the
// trace is never materialized twice. A non-nil tr collects the span
// hierarchy of the scheduled runs. path is the -file argument.
func compareConfigs(src trace.Source, path string, params engine.Params, workers int, tr *span.Trace) sim.Comparison {
	srcs := []trace.Source{src}
	for len(srcs) < 3 {
		fork, err := forkSource(src, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zsim:", err)
			os.Exit(1)
		}
		if c, ok := fork.(io.Closer); ok {
			defer c.Close()
		}
		srcs = append(srcs, fork)
	}
	name := src.Name()
	unit := func(i int, cfg core.Config, cfgName string) sim.Unit {
		return sim.Unit{
			Label:      name + "/" + cfgName,
			NewSource:  func() trace.Source { return srcs[i] },
			Config:     cfg,
			Params:     params,
			ConfigName: cfgName,
		}
	}
	units := []sim.Unit{
		unit(0, core.OneLevelConfig(), sim.ConfigNoBTB2),
		unit(1, core.DefaultConfig(), sim.ConfigBTB2),
		unit(2, core.LargeOneLevelConfig(), sim.ConfigLargeL1),
	}
	res, _, err := sim.RunUnitsTraced(context.Background(), workers, units, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zsim:", err)
		os.Exit(1)
	}
	return sim.Comparison{Trace: name, Base: res[0], BTB2: res[1], LargeBTB1: res[2]}
}

// forkSource returns an independent reader of src's records that holds
// no second copy of them: a generated trace shares src's compiled
// program, a streamed file is opened again at path, and a loaded file
// shares src's records.
func forkSource(src trace.Source, path string) (trace.Source, error) {
	switch s := src.(type) {
	case *workload.Source:
		return workload.New(s.Profile()), nil
	case *trace.FileSource:
		return trace.OpenFileSource(path, trace.DefaultBatchCapacity)
	case *trace.SliceSource:
		return s.Fork(), nil
	}
	return nil, fmt.Errorf("cannot fork a %T trace source", src)
}

func loadSource(file, traceName string, insts int, salvage, stream bool) (trace.Source, error) {
	if file != "" {
		if stream {
			return trace.OpenFileSource(file, trace.DefaultBatchCapacity)
		}
		if salvage {
			src, diag, err := trace.ReadFileTolerant(file)
			if err != nil {
				return nil, err
			}
			if diag != nil {
				fmt.Fprintln(os.Stderr, "zsim: salvage:", diag)
			}
			return src, nil
		}
		return trace.ReadFile(file)
	}
	p, err := workload.ByName(traceName, insts)
	if err != nil {
		return nil, fmt.Errorf("%v (use -list for names)", err)
	}
	return workload.New(p), nil
}

package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// The sharded batch pipeline: every study decomposes into independent
// (config, trace) simulation units; RunUnits fans them across a
// work-stealing worker pool where each worker drives the engine's
// batched stepping path, and RunUnitsSerial keeps the single-threaded
// record-at-a-time reference path alive as the differential oracle
// (see diffgate.go). Unit i's result lands in slot i of the returned
// slice regardless of which worker ran it or in what order, so both
// paths produce identical output layouts.

// Unit is one independent simulation: a configuration applied to a
// freshly built trace source. NewSource is called once per run on the
// executing worker, so units never share mutable source state.
type Unit struct {
	Label      string // diagnostic name, e.g. "oltp-1/btb2"
	NewSource  func() trace.Source
	Config     core.Config
	Params     engine.Params
	ConfigName string
}

// ProfileUnit builds the Unit for one workload profile under one
// configuration — the shape every sweep in this package schedules.
func ProfileUnit(p workload.Profile, cfg core.Config, params engine.Params, configName string) Unit {
	return Unit{
		Label:      p.Name + "/" + configName,
		NewSource:  func() trace.Source { return workload.New(p) },
		Config:     cfg,
		Params:     params,
		ConfigName: configName,
	}
}

// RunUnitsSerial is the serial oracle: every unit runs in index order,
// on the calling goroutine, through the engine's record-at-a-time Run
// loop. It is deliberately boring — the differential gate, perfstat and
// tests trust it, and no production path calls it: studies, zsim,
// zsimd and the examples all run on RunUnits. A panicking unit leaves
// its Result zero-valued and is reported in the returned error; later
// units still run.
func RunUnitsSerial(units []Unit) ([]engine.Result, error) {
	out := make([]engine.Result, len(units))
	var errs []error
	for i := range units {
		if _, _, err := runOneUnit(&units[i], &out[i], i, false, nil, 0); err != nil {
			errs = append(errs, err)
		}
	}
	return out, errors.Join(errs...)
}

// runOneUnit executes one unit into *res, converting a panic into an
// error carrying the unit index, label, and stack. batched selects the
// engine entry point: RunBatched (parallel pipeline) or Run (oracle).
// A non-nil rec threads span tracing through the engine's batched path
// and the unit's FileSource (if that is what NewSource builds), with
// the engine's phase spans attached under parent. bulk/slow report the
// engine's batch fast-path attribution (zero for the serial path).
func runOneUnit(u *Unit, res *engine.Result, i int, batched bool, rec *span.Recorder, parent span.ID) (bulk, slow int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: unit %d (%s) panicked: %v\n%s", i, u.Label, r, debug.Stack())
		}
	}()
	params := u.Params
	if rec.Enabled() {
		params.Spans = rec
		params.SpanParent = parent
	}
	eng := engine.New(u.Config, params)
	src := u.NewSource()
	if fs, ok := src.(*trace.FileSource); ok && rec.Enabled() {
		fs.SetSpans(rec, parent)
	}
	if batched {
		// context.Background: a unit already running always finishes;
		// cancellation stops the scheduler between units.
		if *res, err = eng.RunBatched(context.Background(), src, u.ConfigName, nil); err != nil {
			return 0, 0, err
		}
	} else {
		*res = eng.Run(src, u.ConfigName)
	}
	bulk, slow = eng.BatchPathCounts()
	return bulk, slow, nil
}

// ShardStats describes one RunUnits invocation: how the units spread
// across workers. Metrics is the merged per-worker scheduler registry
// (units run, steal traffic, instructions simulated, busy time,
// run-queue depth) — per-worker registries are goroutine-local while
// running and cross the boundary as immutable snapshots merged through
// AggregateMetrics.
type ShardStats struct {
	Workers   int
	Units     int
	Steals    int64 // units that changed workers after initial distribution
	WallNanos int64 // wall time of the whole RunUnits invocation
	Metrics   obs.Snapshot
}

// schedWorker is one worker's goroutine-local scheduler instrumentation.
type schedWorker struct {
	unitsRun      obs.Counter   // units this worker executed
	unitsStolen   obs.Counter   // units this worker took from victims
	stealAttempts obs.Counter   // victim scans, successful or not
	instructions  obs.Counter   // instructions simulated by this worker
	bulkRecords   obs.Counter   // batched records that took the bulk fast path
	slowRecords   obs.Counter   // batched records stepped one at a time
	busyNanos     obs.Counter   // wall nanoseconds spent inside runOneUnit
	queueDepth    obs.Histogram // local run-queue depth after each pop
}

// registry enumerates the worker's counters in a fresh obs registry.
func (w *schedWorker) registry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("sched_units_run_total", "units", "simulation units executed by this worker", &w.unitsRun)
	reg.Counter("sched_units_stolen_total", "units", "units stolen from other workers' queues", &w.unitsStolen)
	reg.Counter("sched_steal_attempts_total", "scans", "victim-queue scans when the local queue drained", &w.stealAttempts)
	reg.Counter("sched_instructions_total", "instructions", "instructions simulated by this worker", &w.instructions)
	reg.Counter("sched_bulk_records_total", "records", "batched records taking the engine's bulk fast path", &w.bulkRecords)
	reg.Counter("sched_slow_records_total", "records", "batched records stepped through the per-record path", &w.slowRecords)
	reg.Counter("sched_busy_nanos_total", "nanoseconds", "wall time this worker spent executing units", &w.busyNanos)
	w.queueDepth.SetBounds(0, 1, 2, 4, 8, 16, 32, 64)
	reg.Histogram("sched_queue_depth", "units", "local run-queue depth observed after each pop", &w.queueDepth)
	return reg
}

// wallStart and wallElapsed read the host clock for scheduler busy-time
// telemetry. They are the scheduler's only wall-clock access; the
// readings feed sched_busy_nanos_total and ShardStats.WallNanos and
// never reach simulation results (the differential gate compares those
// bit-for-bit).
func wallStart() time.Time {
	//zbp:wallclock scheduler busy-time telemetry, never reaches simulation results
	return time.Now()
}

func wallElapsed(t0 time.Time) int64 {
	//zbp:wallclock scheduler busy-time telemetry, never reaches simulation results
	return int64(time.Since(t0))
}

// unitQueue is one worker's deque of pending unit indices. The owner
// pops from the tail; thieves take half from the head, preserving the
// owner's locality on recently assigned work.
type unitQueue struct {
	mu sync.Mutex
	q  []int
}

// popTail removes and returns the tail unit plus the queue depth left
// behind (telemetry: sched_queue_depth observes it on every pop).
func (w *unitQueue) popTail() (i, depth int, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.q)
	if n == 0 {
		return 0, 0, false
	}
	i = w.q[n-1]
	w.q = w.q[:n-1]
	return i, n - 1, true
}

// stealHalf appends the front half (rounded up) of the queue to into.
func (w *unitQueue) stealHalf(into []int) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.q)
	if n == 0 {
		return into
	}
	k := (n + 1) / 2
	into = append(into, w.q[:k]...)
	w.q = w.q[:copy(w.q, w.q[k:])]
	return into
}

func (w *unitQueue) push(is []int) {
	w.mu.Lock()
	w.q = append(w.q, is...)
	w.mu.Unlock()
}

// RunUnits runs every unit through the batched engine path across a
// work-stealing pool of workers goroutines (workers <= 0 selects
// GOMAXPROCS). Unit i's result is always out[i]; because units are
// independent and each owns its engine, source, and obs registry, the
// results are bit-identical to RunUnitsSerial no matter how the steals
// interleave — the differential gate in diffgate.go enforces exactly
// that.
//
// A panicking unit costs only its own slot (zero-valued Result, error
// joined into the return). Once ctx is canceled no new unit starts;
// each abandoned unit is reported in the returned error.
func RunUnits(ctx context.Context, workers int, units []Unit) ([]engine.Result, error) {
	out, _, err := RunUnitsTraced(ctx, workers, units, nil)
	return out, err
}

// RunUnitsTraced is RunUnits plus the scheduler's own observability:
// the per-worker registries merged into one ShardStats snapshot, and
// hierarchical span tracing. A non-nil tr collects one study span over
// the whole invocation, a worker span per pool worker, a unit span per
// executed unit (with the engine's phase/batch spans and the
// FileSource's refill spans nested beneath), and an instant steal event
// for every successful steal. Tracing never changes scheduling or
// results; a nil tr is the zero-cost disabled path RunUnits uses.
func RunUnitsTraced(ctx context.Context, workers int, units []Unit, tr *span.Trace) ([]engine.Result, ShardStats, error) {
	n := len(units)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]engine.Result, n)
	stats := ShardStats{Workers: workers, Units: n}
	if n == 0 {
		return out, stats, nil
	}

	var (
		mu   sync.Mutex
		errs []error
	)
	report := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	wall0 := wallStart()
	srec := tr.NewRecorder(0)
	study := srec.Start(span.KindStudy, "study", 0)
	finishStudy := func() {
		study.EndArgs(int64(n), int64(stats.Workers))
		tr.Adopt(srec)
		stats.WallNanos = wallElapsed(wall0)
	}

	// Deal contiguous index blocks across the workers; stealing
	// rebalances whatever the static split gets wrong.
	queues := make([]*unitQueue, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		q := &unitQueue{}
		if lo < n {
			q.q = make([]int, 0, hi-lo)
			// Reverse so popTail serves the block in ascending order.
			for i := hi - 1; i >= lo; i-- {
				q.q = append(q.q, i)
			}
		}
		queues[w] = q
	}

	snaps := make([]obs.Snapshot, workers)
	wrecs := make([]*span.Recorder, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker := &schedWorker{}
			reg := worker.registry()
			// Worker recorders land in per-worker result slots and are
			// adopted after wg.Wait, like the registry snapshots.
			wrec := tr.NewRecorder(id + 1)
			ws := wrec.Start(span.KindWorker, "worker", study.ID())
			defer func() {
				ws.EndArgs(worker.unitsRun.Value(), worker.unitsStolen.Value())
				snaps[id] = reg.Snapshot(0)
				wrecs[id] = wrec
			}()
			self := queues[id]
			var loot []int
			for {
				i, depth, ok := self.popTail()
				if !ok {
					// Local queue drained: scan victims round-robin from
					// our right-hand neighbor and take half of the first
					// non-empty queue found.
					worker.stealAttempts.Inc()
					loot = loot[:0]
					victim := -1
					for v := 1; v < workers && len(loot) == 0; v++ {
						vi := (id + v) % workers
						loot = queues[vi].stealHalf(loot)
						if len(loot) > 0 {
							victim = vi
						}
					}
					if len(loot) == 0 {
						// Units are only ever removed, never added, so an
						// empty sweep means no unstarted work remains.
						return
					}
					worker.unitsStolen.Add(int64(len(loot)))
					wrec.Instant(span.KindSteal, "steal", ws.ID(), int64(len(loot)), int64(victim+1))
					self.push(loot)
					continue
				}
				worker.queueDepth.Observe(int64(depth))
				if err := ctx.Err(); err != nil {
					report(fmt.Errorf("sim: canceled before unit %d (%s): %w", i, units[i].Label, err))
					continue
				}
				us := wrec.Start(span.KindUnit, units[i].Label, ws.ID())
				t0 := wallStart()
				bulk, slow, err := runOneUnit(&units[i], &out[i], i, true, wrec, us.ID())
				worker.busyNanos.Add(wallElapsed(t0))
				us.EndArgs(out[i].Instructions, 0)
				if err != nil {
					report(err)
					continue
				}
				worker.unitsRun.Inc()
				worker.instructions.Add(out[i].Instructions)
				worker.bulkRecords.Add(bulk)
				worker.slowRecords.Add(slow)
			}
		}(w)
	}
	wg.Wait()
	for _, r := range wrecs {
		tr.Adopt(r)
	}

	// Merge the per-worker registries: snapshots are immutable plain
	// data, so wrapping them as shard results reuses the study-level
	// aggregation path.
	wrapped := make([]engine.Result, workers)
	for i := range snaps {
		wrapped[i] = engine.Result{Metrics: &snaps[i]}
	}
	if agg, ok := AggregateMetrics(wrapped...); ok {
		stats.Metrics = agg
		if v, found := agg.Get("sched_units_stolen_total"); found {
			stats.Steals = v.Value
		}
	}
	finishStudy()
	return out, stats, errors.Join(errs...)
}

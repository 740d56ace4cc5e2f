package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
)

// split charges a traced run's worker time to layers. The parts come
// from separate clocks: the NewSource and FillBatch wrappers below time
// source build and trace production, the scheduler's unit spans time
// each unit, the gaps the unit spans leave in the study span give each
// worker's idle time, and the scheduler's own counter gives the wall
// time. The engine step is a unit's span minus its build and fill, so
//
//	build + fill + engine + idle = workers × wall
//
// holds only as far as the clocks agree; the benchmark's tests check it.
type split struct {
	workers int
	studies int
	units   int
	records int64
	// fillMetric names the layer the fill time belongs to: generation
	// for synthetic sources, decode for recorded traces.
	fillMetric string

	wall                                time.Duration // summed over studies
	build, fill, engine, idle, tailIdle time.Duration
	// schedBusy is the scheduler's own busy counter, which the unit
	// spans must agree with (zero where the pool exposes none).
	schedBusy          time.Duration
	bulk, slow, steals int64
}

func (s *split) add(o split) {
	s.workers, s.fillMetric = o.workers, o.fillMetric
	s.studies += o.studies
	s.units += o.units
	s.records += o.records
	s.wall += o.wall
	s.build += o.build
	s.fill += o.fill
	s.engine += o.engine
	s.idle += o.idle
	s.tailIdle += o.tailIdle
	s.schedBusy += o.schedBusy
	s.bulk += o.bulk
	s.slow += o.slow
	s.steals += o.steals
}

// capacity is the worker time the studies had: workers × wall.
func (s split) capacity() time.Duration { return time.Duration(s.workers) * s.wall }

// busy is the worker time spent inside units.
func (s split) busy() time.Duration { return s.build + s.fill + s.engine }

func (s split) String() string {
	return fmt.Sprintf("build %.3f s + fill %.3f s + engine %.3f s + idle %.3f s = %.3f s; workers %d x wall %.3f s = %.3f s",
		s.build.Seconds(), s.fill.Seconds(), s.engine.Seconds(), s.idle.Seconds(),
		(s.busy() + s.idle).Seconds(), s.workers, s.wall.Seconds(), s.capacity().Seconds())
}

// metrics writes the split's per-layer metrics into m.
func (s split) metrics(m map[string]float64) {
	recs := float64(s.records)
	m["workload.build_ms_per_unit"] = ratio(ms(s.build), float64(s.units))
	m[s.fillMetric] = ratio(ns(s.fill), recs)
	m["engine.step_ns_per_record"] = ratio(ns(s.engine), recs)
	m["engine.bulk_fraction"] = ratio(float64(s.bulk), float64(s.bulk+s.slow))
	m["sim.utilization"] = ratio(float64(s.busy()), float64(s.capacity()))
	m["sim.tail_idle_s"] = ratio(s.tailIdle.Seconds(), float64(s.studies))
	m["sim.steals"] = ratio(float64(s.steals), float64(s.studies))
}

// unitTimes is one unit's wrapper-measured host time.
type unitTimes struct {
	build, fill time.Duration
}

// timedUnits returns copies of units whose NewSource is timed into
// times[i].build and whose source is wrapped so every Reset and
// FillBatch is timed into times[i].fill.
func timedUnits(units []sim.Unit, times []unitTimes) []sim.Unit {
	out := append([]sim.Unit(nil), units...)
	for i := range out {
		inner, t := out[i].NewSource, &times[i]
		out[i].NewSource = func() trace.Source {
			t0 := time.Now()
			src := inner()
			t.build = time.Since(t0)
			return &timedSource{src: src, fill: &t.fill}
		}
	}
	return out
}

// timedSource charges the host time of the wrapped source's Reset and
// FillBatch to *fill. The batched engine path pulls records only
// through FillBatch, so Next is passed through untimed.
type timedSource struct {
	src  trace.Source
	fill *time.Duration
}

func (s *timedSource) Name() string { return s.src.Name() }

func (s *timedSource) Next() (trace.Inst, bool) { return s.src.Next() }

func (s *timedSource) Reset() {
	t0 := time.Now()
	s.src.Reset()
	*s.fill += time.Since(t0)
}

func (s *timedSource) FillBatch(b *trace.Batch) int {
	t0 := time.Now()
	n := trace.FillBatch(s.src, b)
	*s.fill += time.Since(t0)
	return n
}

// unitSplit derives one traced RunUnits study's split from the
// wrappers' times, the trace's study and unit spans, and the scheduler's
// stats.
func unitSplit(units []sim.Unit, times []unitTimes, st sim.ShardStats, evs []span.Event, recordsPerUnit int, fillMetric string) (split, error) {
	index := make(map[string]int, len(units))
	for i := range units {
		index[units[i].Label] = i
	}
	busy := make([]time.Duration, len(units))
	var study span.Event
	perWorker := map[int][]span.Event{} // unit spans by worker
	for _, e := range evs {
		switch e.Kind {
		case span.KindStudy:
			study = e
		case span.KindWorker:
			if _, ok := perWorker[e.Worker]; !ok {
				perWorker[e.Worker] = nil // a worker that ran no unit
			}
		case span.KindUnit:
			i, ok := index[e.Name]
			if !ok {
				return split{}, fmt.Errorf("split: span for unknown unit %q", e.Name)
			}
			busy[i] = time.Duration(e.Dur)
			perWorker[e.Worker] = append(perWorker[e.Worker], e)
		}
	}
	if len(perWorker) != st.Workers {
		return split{}, fmt.Errorf("split: %d worker spans, scheduler ran %d workers", len(perWorker), st.Workers)
	}
	sp := split{
		workers:    st.Workers,
		studies:    1,
		units:      len(units),
		records:    int64(len(units)) * int64(recordsPerUnit),
		fillMetric: fillMetric,
		wall:       time.Duration(st.WallNanos),
		schedBusy:  time.Duration(st.Metrics.Counter("sched_busy_nanos_total")),
		bulk:       st.Metrics.Counter("sched_bulk_records_total"),
		slow:       st.Metrics.Counter("sched_slow_records_total"),
		steals:     st.Steals,
	}
	for i := range units {
		eng := busy[i] - times[i].build - times[i].fill
		if eng < 0 {
			return split{}, fmt.Errorf("split: unit %s: build %v + fill %v exceed its span %v",
				units[i].Label, times[i].build, times[i].fill, busy[i])
		}
		sp.build += times[i].build
		sp.fill += times[i].fill
		sp.engine += eng
	}
	// A worker is idle wherever its unit spans leave the study span
	// uncovered; what follows its last unit is tail idle.
	studyEnd := study.Start + study.Dur
	for w, us := range perWorker {
		sort.Slice(us, func(a, b int) bool { return us[a].Start < us[b].Start })
		cursor := study.Start
		for _, u := range us {
			if u.Start < cursor {
				return split{}, fmt.Errorf("split: worker %d: unit %s starts before the previous one ended", w, u.Name)
			}
			sp.idle += time.Duration(u.Start - cursor)
			cursor = u.Start + u.Dur
		}
		if cursor > studyEnd {
			return split{}, fmt.Errorf("split: worker %d: a unit ends after the study", w)
		}
		sp.idle += time.Duration(studyEnd - cursor)
		sp.tailIdle += time.Duration(studyEnd - cursor)
	}
	return sp, nil
}

// processCPU is the user and system CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("process CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ns(d time.Duration) float64 { return float64(d) }

// Package obs is the unified observability layer for the simulator: a
// metrics registry with counters, gauges and fixed-bucket histograms
// that every predictor structure registers into, point-in-time registry
// snapshots for phase timelines and cross-shard aggregation, and a
// race-free live publisher for watching long runs over HTTP.
//
// Design constraints, in order:
//
//  1. The hot path must cost nothing extra. Counters are plain int64
//     increments with no atomics, locks, or allocations. The registry
//     is purely an enumeration layer holding pointers to metrics that
//     live inside the instrumented structures; callers read them from
//     its snapshots.
//  2. Metrics are therefore goroutine-local: a Registry and everything
//     registered in it belong to the goroutine running the simulation.
//     Snapshot must be called from that goroutine. Cross-goroutine
//     consumers work with immutable Snapshot values (see Live), and
//     parallel studies aggregate per-shard snapshots with Merge.
//  3. Everything is enumerable: one walk of a Registry or Snapshot
//     reaches every metric with its name, type, and unit, so renderers
//     (Prometheus text, expvar JSON, phase timelines) need no
//     per-metric knowledge.
package obs

import (
	"fmt"
	"sort"
)

// Type classifies a metric.
type Type uint8

// Metric types.
const (
	TypeCounter   Type = iota // monotonically non-decreasing count
	TypeGauge                 // instantaneous level (occupancy, clock)
	TypeHistogram             // fixed-bucket distribution
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Counter is a monotonically non-decreasing count. The zero value is
// ready to use; Inc compiles to a plain int64 increment.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (n must be non-negative for counter semantics; this is not
// checked on the hot path).
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous level that can move both ways.
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v = v }

// Add moves the level by n.
func (g *Gauge) Add(n int64) { g.v += n }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a fixed-bucket distribution of int64 observations.
// Bounds are inclusive upper bounds in ascending order; one implicit
// overflow bucket catches everything above the last bound. A Histogram
// with no bounds still tracks count and sum. Observe never allocates.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	count  int64
	sum    int64
}

// SetBounds fixes the bucket upper bounds (ascending). It panics on
// unsorted bounds and must be called before the first Observe.
func (h *Histogram) SetBounds(bounds ...int64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	if h.count != 0 {
		panic("obs: SetBounds after Observe")
	}
	h.bounds = bounds
	h.counts = make([]int64, len(bounds)+1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
	if h.counts == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Reset clears observations, keeping the bounds.
func (h *Histogram) Reset() {
	h.count, h.sum = 0, 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// Desc names and documents one registered metric.
type Desc struct {
	Name string // unique snake_case name, e.g. "btb1_lookups_total"
	Type Type
	Unit string // "cycles", "entries", "events", ...
	Help string // one-line description for the catalogue
}

// metric binds a Desc to its value source. Exactly one source is set.
type metric struct {
	desc Desc
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64 // computed metric, read at snapshot time
}

// Registry enumerates the metrics of one simulation shard. It is not
// safe for concurrent use; see the package comment for the ownership
// model. The zero value is not usable — call NewRegistry.
type Registry struct {
	metrics []metric
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) add(m metric) {
	if m.desc.Name == "" {
		panic("obs: metric with empty name")
	}
	if _, dup := r.names[m.desc.Name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.desc.Name))
	}
	r.names[m.desc.Name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// Counter registers c under name. The counter keeps living inside the
// instrumented structure; the registry only enumerates it.
func (r *Registry) Counter(name, unit, help string, c *Counter) {
	r.add(metric{desc: Desc{Name: name, Type: TypeCounter, Unit: unit, Help: help}, c: c})
}

// Gauge registers g under name.
func (r *Registry) Gauge(name, unit, help string, g *Gauge) {
	r.add(metric{desc: Desc{Name: name, Type: TypeGauge, Unit: unit, Help: help}, g: g})
}

// Histogram registers h under name.
func (r *Registry) Histogram(name, unit, help string, h *Histogram) {
	r.add(metric{desc: Desc{Name: name, Type: TypeHistogram, Unit: unit, Help: help}, h: h})
}

// GaugeFunc registers a computed gauge. fn is called at snapshot time
// from the owning goroutine — use it for derived state (occupancy,
// queue depth) so the hot path pays nothing.
func (r *Registry) GaugeFunc(name, unit, help string, fn func() int64) {
	r.add(metric{desc: Desc{Name: name, Type: TypeGauge, Unit: unit, Help: help}, fn: fn})
}

// CounterFunc registers a computed counter (a monotone value the
// instrumented code already tracks in a plain field).
func (r *Registry) CounterFunc(name, unit, help string, fn func() int64) {
	r.add(metric{desc: Desc{Name: name, Type: TypeCounter, Unit: unit, Help: help}, fn: fn})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Descs returns the catalogue of registered metrics, sorted by name.
func (r *Registry) Descs() []Desc {
	out := make([]Desc, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m.desc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot captures every registered metric's current value. seq tags
// the snapshot (interval snapshots number from 1). Must be called from
// the goroutine that owns the registered metrics.
func (r *Registry) Snapshot(seq int64) Snapshot {
	s := Snapshot{Seq: seq, Values: make([]Value, 0, len(r.metrics))}
	for _, m := range r.metrics {
		v := Value{Name: m.desc.Name, Type: m.desc.Type, Unit: m.desc.Unit}
		switch {
		case m.c != nil:
			v.Value = m.c.Value()
		case m.g != nil:
			v.Value = m.g.Value()
		case m.fn != nil:
			v.Value = m.fn()
		case m.h != nil:
			v.Count = m.h.count
			v.Sum = m.h.sum
			if len(m.h.bounds) > 0 {
				v.Bounds = append([]int64(nil), m.h.bounds...)
				v.Buckets = append([]int64(nil), m.h.counts...)
			}
		}
		s.Values = append(s.Values, v)
	}
	return s
}

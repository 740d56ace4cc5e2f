package obs

import (
	"fmt"
	"io"
	"strings"
)

// Value is one metric's state inside a Snapshot. Counter and gauge
// values live in Value; histograms carry Count/Sum and, when bucketed,
// parallel Bounds/Buckets slices (Buckets has one extra trailing
// overflow bucket).
type Value struct {
	Name    string  `json:"name"`
	Type    Type    `json:"-"`
	Kind    string  `json:"type"` // Type rendered for JSON consumers
	Unit    string  `json:"unit,omitempty"`
	Value   int64   `json:"value"`
	Count   int64   `json:"count,omitempty"`
	Sum     int64   `json:"sum,omitempty"`
	Bounds  []int64 `json:"bounds,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot is an immutable capture of a whole registry. Snapshots are
// plain data: safe to hand to other goroutines, serialize as JSON, or
// merge across shards.
type Snapshot struct {
	Seq    int64   `json:"seq"`
	Values []Value `json:"values"`
}

// Get returns the named value.
func (s *Snapshot) Get(name string) (Value, bool) {
	for i := range s.Values {
		if s.Values[i].Name == name {
			return s.Values[i], true
		}
	}
	return Value{}, false
}

// Counter returns the named counter/gauge value, or 0 when absent —
// the convenient form for renderers that tolerate missing metrics.
func (s *Snapshot) Counter(name string) int64 {
	v, _ := s.Get(name)
	return v.Value
}

// Merge folds other into s: counters and histograms add, gauges add too
// (for occupancy-style gauges the cross-shard sum is the meaningful
// total). Metrics present only in other are appended. Merge is how
// per-shard registries aggregate in studies run on the sim worker pool.
func (s *Snapshot) Merge(other Snapshot) {
	idx := make(map[string]int, len(s.Values))
	for i := range s.Values {
		idx[s.Values[i].Name] = i
	}
	for _, ov := range other.Values {
		i, ok := idx[ov.Name]
		if !ok {
			cp := ov
			cp.Bounds = append([]int64(nil), ov.Bounds...)
			cp.Buckets = append([]int64(nil), ov.Buckets...)
			s.Values = append(s.Values, cp)
			continue
		}
		v := &s.Values[i]
		v.Value += ov.Value
		v.Count += ov.Count
		v.Sum += ov.Sum
		if len(v.Buckets) == len(ov.Buckets) {
			for k := range v.Buckets {
				v.Buckets[k] += ov.Buckets[k]
			}
		}
	}
}

// Delta returns s minus prev for cumulative metrics (counters and
// histograms); gauges keep their current level. Phase timelines are
// rendered from consecutive interval-snapshot deltas.
func (s *Snapshot) Delta(prev *Snapshot) Snapshot {
	out := Snapshot{Seq: s.Seq, Values: make([]Value, len(s.Values))}
	copy(out.Values, s.Values)
	if prev == nil {
		for i := range out.Values {
			out.Values[i].Bounds = append([]int64(nil), s.Values[i].Bounds...)
			out.Values[i].Buckets = append([]int64(nil), s.Values[i].Buckets...)
		}
		return out
	}
	for i := range out.Values {
		v := &out.Values[i]
		v.Bounds = append([]int64(nil), s.Values[i].Bounds...)
		v.Buckets = append([]int64(nil), s.Values[i].Buckets...)
		pv, ok := prev.Get(v.Name)
		if !ok || v.Type == TypeGauge {
			continue
		}
		v.Value -= pv.Value
		v.Count -= pv.Count
		v.Sum -= pv.Sum
		if len(v.Buckets) == len(pv.Buckets) {
			for k := range v.Buckets {
				v.Buckets[k] -= pv.Buckets[k]
			}
		}
	}
	return out
}

// FillKinds populates the JSON-facing Kind field from Type. Callers
// marshalling snapshots (expvar, JSONL sidecars) should invoke it once
// after capture; it is idempotent.
func (s *Snapshot) FillKinds() {
	for i := range s.Values {
		s.Values[i].Kind = s.Values[i].Type.String()
	}
}

// promSanitize maps a metric name to the Prometheus charset (the
// registry already enforces snake_case, so this is belt-and-braces for
// units and dashes).
func promSanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (v0.0.4): one HELP/TYPE pair per metric, histogram buckets as
// cumulative `le` series plus _sum and _count.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for i := range s.Values {
		v := &s.Values[i]
		name := promSanitize(v.Name)
		if v.Unit != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s (%s)\n", name, v.Unit); err != nil {
				return err
			}
		}
		switch v.Type {
		case TypeHistogram:
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			cum := int64(0)
			for k, b := range v.Bounds {
				if k < len(v.Buckets) {
					cum += v.Buckets[k]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, v.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, v.Sum, name, v.Count); err != nil {
				return err
			}
		case TypeGauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v.Value); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// Package perfstat is the benchmark-trajectory subsystem: it runs the
// named performance scenarios of the parallel pipeline (the BTB2
// capacity sweep through the serial oracle and the work-stealing
// batched scheduler, and the zero-alloc batch decoder in isolation),
// records structured results, and maintains a git-committed trajectory
// file — BENCH_parallel.json, one entry per PR — that a CI gate
// compares new runs against, failing on throughput or speedup
// regressions beyond a threshold.
//
// The trajectory is schema-versioned plain JSON so the history stays
// diffable and machine-readable across tool revisions. Correctness
// metrics (differential mismatches, decoder allocations per batch) are
// gated unconditionally at zero; throughput metrics are gated only
// against a baseline entry recorded on a comparable host (matching
// GOMAXPROCS — see Baseline), which keeps the gate meaningful on
// developer machines and CI runners with different core counts.
package perfstat

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion is the trajectory schema this package reads and writes.
// Readers accept older schemas (fields only accrete) and refuse newer
// ones.
const SchemaVersion = 1

// Metric names shared by the runner and the gate.
const (
	MetricSerialRPS   = "serial_records_per_sec"
	MetricParallelRPS = "parallel_records_per_sec"
	MetricSpeedup     = "speedup"
	MetricSteals      = "steals"
	MetricSerialSec   = "serial_seconds"
	MetricParallelSec = "parallel_seconds"
	MetricDecodeRPS   = "decode_records_per_sec"
	MetricDecodeAlloc = "decode_allocs_per_batch"
	MetricMismatches  = "differential_mismatches"

	// packed_tables scenario: per-structure lookup/insert rates of the
	// packed predictor tables.
	MetricBTBPackedLookup = "btb_packed_lookup_ops_per_sec"
	MetricBTBPackedInsert = "btb_packed_insert_ops_per_sec"
	MetricPHTPackedLookup = "pht_packed_lookup_ops_per_sec"
	MetricCTBPackedLookup = "ctb_packed_lookup_ops_per_sec"
)

// throughputMetrics are gated lower-is-worse against the baseline.
var throughputMetrics = []string{
	MetricSerialRPS, MetricParallelRPS, MetricSpeedup, MetricDecodeRPS,
	MetricBTBPackedLookup, MetricBTBPackedInsert,
	MetricPHTPackedLookup, MetricCTBPackedLookup,
}

// zeroMetrics must be exactly zero in every run, baseline or not: a
// nonzero value means the pipeline is wrong, not slow.
var zeroMetrics = []string{MetricDecodeAlloc, MetricMismatches}

// ScenarioResult is one named scenario's measurements within an entry.
type ScenarioResult struct {
	Name    string             `json:"name"`
	Units   int                `json:"units,omitempty"`
	Records int64              `json:"records"`
	Metrics map[string]float64 `json:"metrics"`
}

// Metric returns the named metric, or 0 when absent.
func (s *ScenarioResult) Metric(name string) float64 { return s.Metrics[name] }

// Entry is one trajectory point: every scenario measured once (or as a
// median of several runs) on one host configuration.
type Entry struct {
	Schema      int              `json:"schema"`
	GeneratedAt string           `json:"generated_at"`
	Label       string           `json:"label,omitempty"` // e.g. "PR 6"
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Workers     int              `json:"workers"`
	Runs        int              `json:"runs"` // median-of-N run count
	Scenarios   []ScenarioResult `json:"scenarios"`
}

// Scenario returns the named scenario result, or nil when absent.
func (e *Entry) Scenario(name string) *ScenarioResult {
	for i := range e.Scenarios {
		if e.Scenarios[i].Name == name {
			return &e.Scenarios[i]
		}
	}
	return nil
}

// Trajectory is the committed benchmark history, oldest entry first.
type Trajectory struct {
	Schema  int     `json:"schema"`
	Entries []Entry `json:"entries"`
}

// LoadTrajectory reads the trajectory file at path. A missing file is
// an empty trajectory (the gate's bootstrap case); a file written by a
// newer schema is an error.
func LoadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Trajectory{Schema: SchemaVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("perfstat: %s: %w", path, err)
	}
	if t.Schema > SchemaVersion {
		return nil, fmt.Errorf("perfstat: %s uses schema %d, newer than this tool's %d",
			path, t.Schema, SchemaVersion)
	}
	return &t, nil
}

// Append adds e to the trajectory, stamping the current schema.
func (t *Trajectory) Append(e Entry) {
	t.Schema = SchemaVersion
	t.Entries = append(t.Entries, e)
}

// Write renders the trajectory as indented JSON at path.
func (t *Trajectory) Write(path string) error {
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// Baseline selects the entry the gate compares throughput against: the
// most recent entry whose GOMAXPROCS matches the current host. Entries
// from hosts with different core counts are not comparable on absolute
// records/sec or speedup, so when no entry matches, Baseline returns
// nil and the gate falls back to correctness-only checks.
func (t *Trajectory) Baseline(gomaxprocs int) *Entry {
	for i := len(t.Entries) - 1; i >= 0; i-- {
		if t.Entries[i].GOMAXPROCS == gomaxprocs {
			return &t.Entries[i]
		}
	}
	return nil
}

// Regression is one gate failure: a metric that moved the wrong way.
type Regression struct {
	Scenario string  `json:"scenario"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Reason   string  `json:"reason"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s/%s: %s (baseline %.4g, current %.4g)",
		r.Scenario, r.Metric, r.Reason, r.Baseline, r.Current)
}

// Compare gates current against baseline. Correctness metrics
// (differential mismatches, decoder allocations) must be zero
// unconditionally. Throughput metrics (records/sec, speedup) must not
// fall more than threshold (a fraction, e.g. 0.15 for 15%) below the
// baseline's value; they are skipped for scenarios the baseline lacks,
// and entirely when baseline is nil (no comparable host in the
// trajectory). The returned slice is empty when the gate passes.
func Compare(baseline *Entry, current Entry, threshold float64) []Regression {
	var regs []Regression
	for i := range current.Scenarios {
		cur := &current.Scenarios[i]
		for _, m := range zeroMetrics {
			if v, ok := cur.Metrics[m]; ok && v != 0 {
				regs = append(regs, Regression{
					Scenario: cur.Name, Metric: m, Current: v,
					Reason: "must be exactly zero",
				})
			}
		}
		if baseline == nil {
			continue
		}
		base := baseline.Scenario(cur.Name)
		if base == nil {
			continue
		}
		for _, m := range throughputMetrics {
			bv, ok := base.Metrics[m]
			if !ok || bv <= 0 {
				continue
			}
			cv, ok := cur.Metrics[m]
			if !ok {
				continue
			}
			if cv < bv*(1-threshold) {
				regs = append(regs, Regression{
					Scenario: cur.Name, Metric: m, Baseline: bv, Current: cv,
					Reason: fmt.Sprintf("dropped %.1f%% (threshold %.0f%%)",
						100*(1-cv/bv), 100*threshold),
				})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Scenario != regs[j].Scenario {
			return regs[i].Scenario < regs[j].Scenario
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// Package stats defines the branch-outcome taxonomy of Section 5.1 /
// Figure 4 and the counter set the engine accumulates per run.
//
// "Bad branch outcomes are those that incur a performance penalty.
// Specifically they consist of dynamically mispredicted branches and
// surprise branches which are guessed or resolved taken. These bad
// surprise branches are classified as compulsory (first time that branch
// is seen), latency (surprise because a prediction wasn't available in
// time ...), or capacity (branch was seen before, and not categorized as
// missed due to latency)."
package stats

import (
	"fmt"
	"strings"
)

// Outcome classifies one dynamic branch execution.
type Outcome uint8

// Branch outcomes. The Bad* outcomes incur pipeline penalties.
const (
	// GoodPredicted: dynamically predicted, correct direction and target.
	GoodPredicted Outcome = iota
	// GoodSurpriseNT: surprise branch guessed not-taken and resolved
	// not-taken — no penalty, not a bad outcome.
	GoodSurpriseNT
	// BadWrongDir: dynamically predicted with the wrong direction
	// (guessed taken/resolved not-taken or vice versa).
	BadWrongDir
	// BadWrongTarget: predicted taken, resolved taken, wrong target.
	BadWrongTarget
	// BadSurpriseCompulsory: bad surprise, first time the branch is seen.
	BadSurpriseCompulsory
	// BadSurpriseLatency: bad surprise because the prediction was not
	// available in time (search behind decode, or install latency).
	BadSurpriseLatency
	// BadSurpriseCapacity: bad surprise, branch seen before and not a
	// latency miss — the capacity misses the BTB2 exists to eliminate.
	BadSurpriseCapacity

	NumOutcomes
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case GoodPredicted:
		return "good-predicted"
	case GoodSurpriseNT:
		return "good-surprise-nt"
	case BadWrongDir:
		return "bad-wrong-dir"
	case BadWrongTarget:
		return "bad-wrong-target"
	case BadSurpriseCompulsory:
		return "bad-surprise-compulsory"
	case BadSurpriseLatency:
		return "bad-surprise-latency"
	case BadSurpriseCapacity:
		return "bad-surprise-capacity"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// MetricName returns the registry counter name under which the engine
// publishes this outcome, e.g. "engine_outcome_bad_wrong_dir_total".
func (o Outcome) MetricName() string {
	return "engine_outcome_" + strings.ReplaceAll(o.String(), "-", "_") + "_total"
}

// Bad reports whether the outcome incurs a penalty.
func (o Outcome) Bad() bool { return o >= BadWrongDir && o < NumOutcomes }

// Counts accumulates outcome tallies.
type Counts struct {
	N [NumOutcomes]int64
}

// Add records one outcome.
func (c *Counts) Add(o Outcome) { c.N[o]++ }

// Total returns the number of recorded branch outcomes.
func (c *Counts) Total() int64 {
	var t int64
	for _, n := range c.N {
		t += n
	}
	return t
}

// Bad returns the number of bad outcomes.
func (c *Counts) Bad() int64 {
	var t int64
	for o := Outcome(0); o < NumOutcomes; o++ {
		if o.Bad() {
			t += c.N[o]
		}
	}
	return t
}

// BadRate returns bad outcomes as a fraction of all outcomes (Figure 4's
// y-axis).
func (c *Counts) BadRate() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	return float64(c.Bad()) / float64(total)
}

// Rate returns one outcome's share of all outcomes.
func (c *Counts) Rate(o Outcome) float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	return float64(c.N[o]) / float64(total)
}

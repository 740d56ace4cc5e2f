// Package predictor models the timing behaviour of the first-level
// asynchronous-lookahead search pipeline: the variable prediction
// throughput of Table 1 and the speculative BTB1-miss detection of
// Table 2 / Section 3.4.
//
// The pipeline searches the BTB1 and BTBP asynchronously from (and
// usually ahead of) instruction fetch. Costs are expressed in ticks — a
// fixed-point cycle unit (TicksPerCycle per cycle) — so that fractional
// rates like "2 not-taken predictions every 5 cycles" and "16 bytes per
// cycle average sequential search" stay exact in integer arithmetic.
package predictor

import "fmt"

// TicksPerCycle is the fixed-point scale: 12 ticks = 1 cycle. 12 is
// divisible by 2, 3 and 4, covering every fractional rate in the model.
const TicksPerCycle = 12

// Ticks is a fixed-point cycle count.
type Ticks int64

// Cycles converts whole cycles to ticks.
func Cycles(c int) Ticks { return Ticks(c) * TicksPerCycle }

// ToCycles converts ticks to (truncated) whole cycles.
func (t Ticks) ToCycles() uint64 {
	if t < 0 {
		return 0
	}
	return uint64(t / TicksPerCycle)
}

// Float returns ticks as fractional cycles (for reporting).
func (t Ticks) Float() float64 { return float64(t) / TicksPerCycle }

// Throughput holds the Table 1 prediction-rate parameters in cycles.
// The defaults mirror the paper exactly.
type Throughput struct {
	// TakenLoop: "a loop consisting of a single taken branch" predicts
	// every cycle.
	TakenLoop Ticks
	// TakenFIT: under FIT control, predictions every other cycle.
	TakenFIT Ticks
	// TakenMRU: taken predictions from the MRU BTB1 column, one every 3
	// cycles.
	TakenMRU Ticks
	// TakenOther: any other taken prediction, one every 4 cycles.
	TakenOther Ticks
	// NotTakenPaired: when a searched row supplies 2 simultaneous
	// not-taken predictions, the rate is 2 per 5 cycles.
	NotTakenPaired Ticks
	// NotTaken: otherwise one not-taken prediction every 4 cycles.
	NotTaken Ticks
	// SeqSearchPerRow: with no predictions found, the pipeline averages
	// 16 bytes per cycle (3 cycles at 32 B/cycle then 3 re-index cycles),
	// i.e. 2 cycles per 32-byte row.
	SeqSearchPerRow Ticks
}

// DefaultThroughput is the zEC12 Table 1 rate set.
var DefaultThroughput = Throughput{
	TakenLoop:       Cycles(1),
	TakenFIT:        Cycles(2),
	TakenMRU:        Cycles(3),
	TakenOther:      Cycles(4),
	NotTakenPaired:  5 * TicksPerCycle / 2, // 2.5 cycles each
	NotTaken:        Cycles(4),
	SeqSearchPerRow: Cycles(2), // 32 bytes at 16 B/cycle average
}

// PredCase classifies a prediction event for cost purposes.
type PredCase uint8

// Prediction cost cases, in decreasing speed order.
const (
	CaseTakenLoop      PredCase = iota // single taken branch looping to itself
	CaseTakenFIT                       // taken, FIT-accelerated re-index
	CaseTakenMRU                       // taken, hit in the MRU column
	CaseTakenOther                     // taken, any other column
	CaseNotTakenPaired                 // not-taken, paired in one row read
	CaseNotTaken                       // not-taken, alone
)

// String implements fmt.Stringer.
func (c PredCase) String() string {
	switch c {
	case CaseTakenLoop:
		return "taken-loop"
	case CaseTakenFIT:
		return "taken-fit"
	case CaseTakenMRU:
		return "taken-mru"
	case CaseTakenOther:
		return "taken-other"
	case CaseNotTakenPaired:
		return "not-taken-paired"
	case CaseNotTaken:
		return "not-taken"
	default:
		return fmt.Sprintf("PredCase(%d)", uint8(c))
	}
}

// Cost returns the tick cost of a prediction case.
func (tp Throughput) Cost(c PredCase) Ticks {
	switch c {
	case CaseTakenLoop:
		return tp.TakenLoop
	case CaseTakenFIT:
		return tp.TakenFIT
	case CaseTakenMRU:
		return tp.TakenMRU
	case CaseTakenOther:
		return tp.TakenOther
	case CaseNotTakenPaired:
		return tp.NotTakenPaired
	case CaseNotTaken:
		return tp.NotTaken
	default:
		panic(fmt.Sprintf("predictor: unknown case %d", c))
	}
}

// ClassifyTaken picks the cost case for a predicted-taken branch.
//
//	loop   — the branch is the same single branch predicted last time and
//	         jumps back to its own line (tightest loop);
//	fitHit — the FIT supplied the correct re-index;
//	mru    — the hit came from the MRU BTB1 column.
func ClassifyTaken(loop, fitHit, mru bool) PredCase {
	switch {
	case loop:
		return CaseTakenLoop
	case fitHit:
		return CaseTakenFIT
	case mru:
		return CaseTakenMRU
	default:
		return CaseTakenOther
	}
}

// ClassifyNotTaken picks the cost case for a predicted-not-taken branch.
// paired is true when the same row read supplied two not-taken
// predictions (the second of the pair rides along).
func ClassifyNotTaken(paired bool) PredCase {
	if paired {
		return CaseNotTakenPaired
	}
	return CaseNotTaken
}

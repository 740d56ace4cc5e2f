// Package analysis computes trace-locality measurements that explain
// branch predictor capacity behaviour: the re-reference distance
// histogram of branch sites (which hierarchy level can catch each
// re-reference) and windowed working-set sizes. These are the
// quantities the paper's capacity argument rests on — a first level
// covering ~114-142 KB of footprint misses exactly the re-references
// whose distance exceeds its retention.
package analysis

import (
	"fmt"
	"math"
	"strings"

	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// MaxLog2Distance bounds the histogram: re-references beyond 2^31
// instructions land in the last bucket.
const MaxLog2Distance = 31

// ReuseHistogram is a log2-bucketed histogram of branch re-reference
// distances, measured in dynamic instructions between consecutive
// executions of the same branch site.
type ReuseHistogram struct {
	// Buckets[i] counts re-references with distance in [2^i, 2^(i+1)).
	Buckets [MaxLog2Distance + 1]int64
	// First counts first-ever executions (no prior reference).
	First int64
	// Total counts all dynamic branch executions.
	Total int64
}

// Add records one re-reference distance.
func (h *ReuseHistogram) Add(distance int64) {
	if distance < 1 {
		distance = 1
	}
	b := int(math.Log2(float64(distance)))
	if b > MaxLog2Distance {
		b = MaxLog2Distance
	}
	h.Buckets[b]++
}

// Reuses returns the number of non-first branch executions.
func (h *ReuseHistogram) Reuses() int64 { return h.Total - h.First }

// FractionBeyond returns the fraction of re-references whose distance is
// at least minDistance instructions — the share a structure retaining
// roughly minDistance instructions' worth of branches will miss.
func (h *ReuseHistogram) FractionBeyond(minDistance int64) float64 {
	reuses := h.Reuses()
	if reuses == 0 {
		return 0
	}
	var n int64
	for b := 0; b <= MaxLog2Distance; b++ {
		if int64(1)<<uint(b+1) > minDistance {
			n += h.Buckets[b]
		}
	}
	return float64(n) / float64(reuses)
}

// Median returns the median re-reference distance (bucket midpoint).
func (h *ReuseHistogram) Median() int64 {
	reuses := h.Reuses()
	if reuses == 0 {
		return 0
	}
	var cum int64
	for b := 0; b <= MaxLog2Distance; b++ {
		cum += h.Buckets[b]
		if 2*cum >= reuses {
			return (int64(1)<<uint(b) + int64(1)<<uint(b+1)) / 2
		}
	}
	return 1 << MaxLog2Distance
}

// String renders the histogram as an ASCII chart.
func (h *ReuseHistogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "branch re-reference distances (%d executions, %d first-time)\n",
		h.Total, h.First)
	var max int64
	for _, n := range h.Buckets {
		if n > max {
			max = n
		}
	}
	for b := 0; b <= MaxLog2Distance; b++ {
		n := h.Buckets[b]
		if n == 0 {
			continue
		}
		width := 0
		if max > 0 {
			width = int(n * 40 / max)
		}
		fmt.Fprintf(&sb, "  2^%-2d %10d |%s\n", b, n, strings.Repeat("#", width))
	}
	return sb.String()
}

// BranchReuse measures the re-reference distance histogram of src's
// branch sites.
func BranchReuse(src trace.Source) ReuseHistogram {
	src.Reset()
	var h ReuseHistogram
	last := make(map[zaddr.Addr]int64, 1<<16)
	var idx int64
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		idx++
		if !in.IsBranch() {
			continue
		}
		h.Total++
		if prev, seen := last[in.Addr]; seen {
			h.Add(idx - prev)
		} else {
			h.First++
		}
		last[in.Addr] = idx
	}
	return h
}

// LevelCoverage summarizes, for the paper's structure capacities, which
// share of re-references each level can plausibly catch, assuming a
// structure holding N branches retains a site for roughly N * instsPerBranch
// dynamic instructions (fully-associative LRU approximation).
type LevelCoverage struct {
	BTBPPct   float64 // caught by the 768-entry BTBP
	BTB1Pct   float64 // caught by BTBP+BTB1 (4.8k entries)
	BTB2Pct   float64 // caught with the 24k BTB2 backing them
	BeyondPct float64 // beyond even the BTB2
}

// Coverage computes LevelCoverage from a reuse histogram and the trace's
// dynamic instructions-per-branch ratio.
func (h *ReuseHistogram) Coverage(instsPerBranch float64) LevelCoverage {
	retention := func(entries int) int64 {
		return int64(float64(entries) * instsPerBranch)
	}
	beyondBTBP := h.FractionBeyond(retention(768))
	beyondL1 := h.FractionBeyond(retention(768 + 4096))
	beyondL2 := h.FractionBeyond(retention(768 + 4096 + 24576))
	return LevelCoverage{
		BTBPPct:   100 * (1 - beyondBTBP),
		BTB1Pct:   100 * (1 - beyondL1),
		BTB2Pct:   100 * (1 - beyondL2),
		BeyondPct: 100 * beyondL2,
	}
}

package trace

import (
	"fmt"

	"bulkpreload/internal/zaddr"
)

// Stats summarizes the branch footprint of a trace. The two headline
// numbers — unique branch instruction addresses and unique *ever-taken*
// branch instruction addresses — are exactly the columns of Table 4 of
// the paper; traces with more than 5,000 unique taken branch addresses
// were the paper's candidates for BTB2 benefit.
type Stats struct {
	Name string

	Instructions int64 // total dynamic instructions
	Branches     int64 // dynamic branch executions
	TakenBr      int64 // dynamic taken branch executions

	UniqueBranches int // unique branch instruction addresses
	UniqueTaken    int // unique ever-taken branch instruction addresses

	CodeBytes      int64 // distinct instruction bytes touched (footprint)
	Blocks4K       int   // distinct 4 KB blocks touched
	KindCounts     [numKinds]int64
	ChangingTarget int // taken branch sites observed with >1 target
}

// TakenRate returns the fraction of dynamic branches resolved taken.
func (s Stats) TakenRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.TakenBr) / float64(s.Branches)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d insts, %d uniq branches (%d ever-taken), %.1f%% taken, %d 4KB blocks",
		s.Name, s.Instructions, s.UniqueBranches, s.UniqueTaken, 100*s.TakenRate(), s.Blocks4K)
}

// Measure makes one full pass over src and computes its Stats. The source
// is Reset before and left exhausted after.
func Measure(src Source) Stats {
	src.Reset()
	st := Stats{Name: src.Name()}
	branchSeen := make(map[zaddr.Addr]bool)
	takenSeen := make(map[zaddr.Addr]bool)
	firstTarget := make(map[zaddr.Addr]zaddr.Addr)
	changing := make(map[zaddr.Addr]bool)
	codeBytes := make(map[zaddr.Addr]uint8) // inst addr -> length
	blocks := make(map[uint64]bool)

	//zbp:bounded terminates when src.Next reports end-of-trace
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		st.Instructions++
		st.KindCounts[in.Kind]++
		codeBytes[in.Addr] = in.Length
		blocks[zaddr.Block(in.Addr)] = true
		if !in.IsBranch() {
			continue
		}
		st.Branches++
		branchSeen[in.Addr] = true
		if in.Taken {
			st.TakenBr++
			takenSeen[in.Addr] = true
			if prev, ok := firstTarget[in.Addr]; !ok {
				firstTarget[in.Addr] = in.Target
			} else if prev != in.Target && !changing[in.Addr] {
				changing[in.Addr] = true
				st.ChangingTarget++
			}
		}
	}
	st.UniqueBranches = len(branchSeen)
	st.UniqueTaken = len(takenSeen)
	st.Blocks4K = len(blocks)
	for _, l := range codeBytes {
		st.CodeBytes += int64(l)
	}
	return st
}

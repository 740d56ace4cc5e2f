// Package sim shows the same directives accepted where their consumers
// actually look: a package named sim is in scope for determinism,
// erring, and ctxflow, so every annotation below is live and the
// staledirective analyzer stays silent.
package sim

import "context"

// run's annotations all have a consumer here: wallclock and the
// determinism allow are read by determinism, and bounded by ctxflow.
func run(ctx context.Context, next chan int) int {
	//zbp:wallclock progress logging only, excluded from results
	_ = ctx
	sum := 0
	//zbp:bounded next is closed by the producer when the trace ends
	for v := range next {
		sum += v
	}
	//zbp:allow determinism keys are sorted by the caller before use
	//zbp:allow erring best-effort cleanup on shutdown
	return sum
}

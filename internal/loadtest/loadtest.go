// Package loadtest is the fault-injecting load testbed for the zsimd
// service: a set of named, deterministic scenarios that drive a real
// service instance — in-process for load and timeout shapes, as a
// killed-and-restarted subprocess for crash recovery — and verify the
// robustness contracts the service documents:
//
//	steady      a mixed-tenant workload completes with zero retries,
//	            and identical specs produce byte-identical results
//	burst       overload is shed with 429 + Retry-After at a bounded
//	            queue depth, and every accepted job still completes
//	timeout     a job that overruns its deadline dead-letters after
//	            bounded retries without wedging the queue
//	slowclient  a client dribbling request headers cannot stall the
//	            API or the drain path
//	kill9       SIGKILL mid-job, restart, and the resumed result is
//	            bit-identical to a serial checkpoint+resume oracle
//
// Scenarios are seeded and reproducible: workload mixes derive from
// Options.Seed through splitmix64, the same generator discipline the
// fault-injection layer uses. Run them via `zsimd -selftest`, the CI
// selftest job, or the package tests.
package loadtest

import (
	"fmt"
	"strings"
	"time"
)

// Options configures a testbed run.
type Options struct {
	// Bin is the zsimd binary for subprocess scenarios (kill9). Empty
	// skips them with Outcome.Skipped set.
	Bin string

	// Filter, when non-empty, selects scenarios whose name contains it.
	Filter string

	// Seed drives the deterministic workload mixes (0 selects 1).
	Seed uint64

	// Logf receives scenario progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Outcome reports one scenario's result.
type Outcome struct {
	Name    string
	Err     error
	Skipped bool
	Dur     time.Duration
}

// scenario is one named testbed case.
type scenario struct {
	name     string
	needsBin bool
	run      func(h *harness) error
}

// scenarios in execution order: cheap in-process shapes first, the
// subprocess crash drill last.
var scenarios = []scenario{
	{name: "steady", run: runSteady},
	{name: "burst", run: runBurst},
	{name: "timeout", run: runTimeout},
	{name: "slowclient", run: runSlowClient},
	{name: "kill9", needsBin: true, run: runKill9},
}

// Names lists the available scenario names.
func Names() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.name
	}
	return out
}

// Run executes every scenario Options selects and returns their
// outcomes.
func Run(opts Options) []Outcome {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	var outs []Outcome
	for _, sc := range scenarios {
		if opts.Filter != "" && !strings.Contains(sc.name, opts.Filter) {
			continue
		}
		if sc.needsBin && opts.Bin == "" {
			opts.Logf("loadtest: %s: skipped (no zsimd binary)", sc.name)
			outs = append(outs, Outcome{Name: sc.name, Skipped: true})
			continue
		}
		h := &harness{
			opts: opts,
			rng:  newRNG(opts.Seed),
			logf: func(format string, args ...any) {
				opts.Logf("loadtest: "+sc.name+": "+format, args...)
			},
		}
		start := time.Now()
		err := sc.run(h)
		dur := time.Since(start)
		if err != nil {
			opts.Logf("loadtest: %s: FAIL (%v): %v", sc.name, dur.Round(time.Millisecond), err)
		} else {
			opts.Logf("loadtest: %s: ok (%v)", sc.name, dur.Round(time.Millisecond))
		}
		outs = append(outs, Outcome{Name: sc.name, Err: err, Dur: dur})
	}
	return outs
}

// harness is the per-scenario context.
type harness struct {
	opts Options
	rng  *rng
	logf func(format string, args ...any)
}

// rng is a splitmix64 stream — the deterministic-seeding idiom the
// fault layer uses, so scenario workload mixes replay exactly.
type rng struct{ x uint64 }

func newRNG(seed uint64) *rng { return &rng{x: seed} }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a deterministic value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// waitUntil polls cond every few milliseconds until it holds or the
// timeout lapses.
func waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
}

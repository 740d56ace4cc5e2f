package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/zaddr"
)

// faultRates returns aggressive injection rates so a short run of the
// small test hierarchy sees many strikes.
func faultRates(p fault.Protection) fault.Config {
	return fault.ZEC12Rates(1234, 20_000, p) // 2% of reads
}

// driveFaulted exercises the hierarchy under a randomized branch
// workload: installs, predictions, and resolutions over a footprint
// large enough to keep every structure busy.
func driveFaulted(t *testing.T, h *Hierarchy, steps int) {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	now := uint64(0)
	addrs := make([]zaddr.Addr, 200)
	for i := range addrs {
		addrs[i] = zaddr.Addr(0x1000 + 64*uint64(i))
	}
	for s := 0; s < steps; s++ {
		now += uint64(1 + r.Intn(8))
		a := addrs[r.Intn(len(addrs))]
		in := takenBranch(a, a+0x4000)
		if r.Intn(4) == 0 {
			in.Taken = false
		}
		if p, ok := h.Predict(a, now); ok {
			h.Resolve(in, &p, now)
		} else {
			h.Resolve(in, nil, now)
		}
		if s%50 == 0 {
			h.Advance(now + h.cfg.SurpriseInstallDelay)
		}
	}
}

// TestUnprotectedFaultsPreserveInvariants is the key structural claim of
// the fault model: silent corruption changes predictions, never the
// hierarchy's residency/placement invariants, because injected flips are
// confined to the entry payload (target, direction, length, valid bit)
// and never touch the indexed address.
func TestUnprotectedFaultsPreserveInvariants(t *testing.T) {
	h := New(testConfig(), faultRates(fault.Unprotected))
	for round := 0; round < 20; round++ {
		driveFaulted(t, h, 500)
		if err := h.checkInvariants(); err != nil {
			t.Fatalf("round %d: invariants violated under silent corruption: %v", round, err)
		}
	}
	s := h.FaultStats()
	if s.Injected == 0 {
		t.Fatal("workload drew no fault strikes; rates too low for the test to mean anything")
	}
	if s.Detected != 0 || s.Recovered != 0 {
		t.Errorf("unprotected run detected/recovered faults: %+v", s)
	}
	if s.Silent != s.Injected {
		t.Errorf("silent %d != injected %d in unprotected mode", s.Silent, s.Injected)
	}
}

// TestParityRecoveryRestoresCleanState checks the acceptance criterion
// "recoveries == detections" and that recovery-by-invalidation leaves a
// hierarchy that still satisfies every structural invariant.
func TestParityRecoveryRestoresCleanState(t *testing.T) {
	h := New(testConfig(), faultRates(fault.Parity))
	for round := 0; round < 20; round++ {
		driveFaulted(t, h, 500)
		if err := h.checkInvariants(); err != nil {
			t.Fatalf("round %d: invariants violated after parity recovery: %v", round, err)
		}
	}
	s := h.FaultStats()
	if s.Injected == 0 {
		t.Fatal("workload drew no fault strikes")
	}
	if s.Recovered != s.Detected {
		t.Errorf("recovered %d != detected %d", s.Recovered, s.Detected)
	}
	if s.Detected != s.Injected {
		t.Errorf("parity left %d of %d strikes undetected", s.Injected-s.Detected, s.Injected)
	}
	if s.Silent != 0 {
		t.Errorf("parity run recorded %d silent corruptions", s.Silent)
	}
	// Per-injector too, not just in aggregate.
	for _, j := range h.FaultInjectors() {
		js := j.Stats()
		if js.Recovered != js.Detected {
			t.Errorf("%s: recovered %d != detected %d", j.Name(), js.Recovered, js.Detected)
		}
	}
}

// faultRun is what a faulted run leaves behind: the table state, the
// aggregate fault counters and each injector's read count. Under
// Unprotected every strike lands in a table payload, so a different
// strike stream changes the state.
type faultRun struct {
	state State
	stats fault.Stats
	reads []uint64
}

func observeFaults(h *Hierarchy) faultRun {
	r := faultRun{state: h.State(), stats: h.FaultStats()}
	for _, j := range h.FaultInjectors() {
		r.reads = append(r.reads, j.Reads())
	}
	return r
}

// TestFaultSitesDeterministic: same seed, same workload -> bit-for-bit
// identical strikes, the reproducibility the degradation study depends
// on. A different seed must end in a different state, or the
// comparison could not see a diverging strike stream.
func TestFaultSitesDeterministic(t *testing.T) {
	run := func(seed uint64) faultRun {
		fc := faultRates(fault.Unprotected)
		fc.Seed = seed
		h := New(testConfig(), fc)
		driveFaulted(t, h, 3000)
		return observeFaults(h)
	}
	a, b := run(1234), run(1234)
	if len(a.reads) == 0 {
		t.Fatal("no injectors attached")
	}
	if a.stats.Injected == 0 {
		t.Fatal("no strikes landed")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical runs ended in different states")
	}
	if reflect.DeepEqual(a.state, run(4321).state) {
		t.Error("a different fault seed left the same state")
	}
}

// TestHierarchyResetReplaysFaults: Reset must rearm the injectors so a
// replayed workload sees the identical fault stream.
func TestHierarchyResetReplaysFaults(t *testing.T) {
	h := New(testConfig(), faultRates(fault.Unprotected))
	driveFaulted(t, h, 2000)
	first := observeFaults(h)
	if first.stats.Injected == 0 {
		t.Fatal("no strikes landed")
	}
	h.Reset()
	if s := h.FaultStats(); s != (fault.Stats{}) {
		t.Fatalf("Reset left fault counters: %+v", s)
	}
	driveFaulted(t, h, 2000)
	if !reflect.DeepEqual(first, observeFaults(h)) {
		t.Error("post-Reset replay ended in a different state")
	}
}

// TestFaultedPredictPathNoAllocs extends the PR 1 allocation pins to the
// fault hooks: Strike/parity-recovery must not allocate even while
// faults are landing on the hot path.
func TestFaultedPredictPathNoAllocs(t *testing.T) {
	h := New(testConfig(), faultRates(fault.Parity)) // 2% of reads struck
	a, tgt := zaddr.Addr(0x4000), zaddr.Addr(0x5000)
	in := takenBranch(a, tgt)
	installBranch(h, in, 0)
	now := uint64(100)
	step := func() {
		if p, ok := h.Predict(a, now); ok {
			h.Resolve(in, &p, now)
		} else {
			// A parity recovery invalidated the entry: re-train it through
			// the surprise path, exactly as a real run would.
			h.Resolve(in, nil, now)
			h.Advance(now + h.cfg.SurpriseInstallDelay)
		}
		now += 10
	}
	for i := 0; i < 64; i++ { // warm scratch buffers, with strikes landing
		step()
	}
	allocs := testing.AllocsPerRun(2000, step)
	if allocs != 0 {
		t.Errorf("faulted predict path allocates %.1f objects/op, want 0", allocs)
	}
	if h.FaultStats().Injected == 0 {
		t.Fatal("no strikes landed; the pin did not exercise the fault hooks")
	}
}

// TestNoFaultConfigAttachesNothing pins the disabled path: a zero fault
// config must leave every structure with a nil injector.
func TestNoFaultConfigAttachesNothing(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	if js := h.FaultInjectors(); len(js) != 0 {
		t.Fatalf("disabled config attached %d injectors", len(js))
	}
	if s := h.FaultStats(); s != (fault.Stats{}) {
		t.Errorf("disabled config has fault stats: %+v", s)
	}
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// TestInvariantsUnderRandomOperations drives random surprise installs,
// predictions, miss reports, transfers and preloads and checks the
// first-level uniqueness invariant after every batch.
func TestInvariantsUnderRandomOperations(t *testing.T) {
	run := func(seed int64, policy Policy) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.Policy = policy
		h := New(cfg, fault.Config{})
		now := uint64(0)
		for step := 0; step < 400; step++ {
			now += uint64(r.Intn(20))
			a := zaddr.Addr(0x1000 + r.Intn(256)*64)
			switch r.Intn(6) {
			case 0, 1:
				in := takenBranch(a, a+0x80)
				if p, ok := h.Predict(a, now); ok {
					h.Resolve(in, &p, now)
				} else {
					h.Resolve(in, nil, now)
				}
			case 2:
				h.Predict(a, now)
			case 3:
				h.ReportBTB1Miss(a, now)
			case 4:
				h.ReportICacheMiss(a, now)
			case 5:
				h.PreloadBranch(a, a+0x100, 4, now)
			}
			if step%25 == 0 {
				h.Advance(now + 500)
				if err := h.CheckInvariants(); err != nil {
					t.Logf("seed %d policy %v step %d: %v", seed, policy, step, err)
					return false
				}
			}
		}
		h.Advance(now + 100000)
		return h.CheckInvariants() == nil
	}
	f := func(seed int64) bool {
		return run(seed, SemiExclusive) && run(seed, Inclusive) && run(seed, TrueExclusive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTrueExclusiveInvariant: under the true-exclusive policy, nothing
// may be resident in both the first level and the BTB2 after transfers.
func TestTrueExclusiveInvariant(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = TrueExclusive
	h := New(cfg, fault.Config{})
	// Install, evict to BTB2-only, then transfer back.
	br := takenBranch(0x40010, 0x40100)
	h.Resolve(br, nil, 0)
	h.Advance(100)
	h.ReportBTB1Miss(br.Addr, 1000)
	h.ReportICacheMiss(br.Addr, 1000)
	h.Advance(1400)
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestInvariantViolationDetected: the checker is not a rubber stamp — a
// hand-constructed duplicate is caught.
func TestInvariantViolationDetected(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	e := takenBranch(0x5000, 0x6000)
	// Force a duplicate by installing directly into both tables through
	// the internal fields (test-only white-box access).
	h.btb1.Insert(entryOf(e))
	h.btbp.Insert(entryOf(e))
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("duplicate across BTB1/BTBP not detected")
	}
}

// entryOf builds a btb.Entry from a taken-branch instruction.
func entryOf(in trace.Inst) btb.Entry {
	return btb.Entry{Valid: true, Addr: in.Addr, Target: in.Target, Length: in.Length}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// checkInvariants validates the structural invariants the hierarchy's
// content-movement policy is supposed to maintain. It is O(capacity).
//
// Invariants checked:
//
//  1. No branch is resident in both the BTB1 and the BTBP: installs drop
//     duplicates, and promotion moves (not copies) entries.
//  2. Under the TrueExclusive policy, no branch is resident in both the
//     first level and the BTB2.
//  3. Every valid entry's address maps to the row it is stored in (no
//     corrupted placements).
func (h *Hierarchy) checkInvariants() error {
	btb1, err := residents(h.btb1, h.cfg.BTB1)
	if err != nil {
		return err
	}
	btbp, err := residents(h.btbp, h.cfg.BTBP)
	if err != nil {
		return err
	}
	inBTB1, inBTBP := residencySet(btb1), residencySet(btbp)
	// Iterate the slice, not the set: on a multi-way violation the
	// reported address is then the first in table order, not whichever
	// key Go's randomized map iteration happened to yield.
	for _, a := range btb1 {
		if inBTBP[a] {
			return fmt.Errorf("core: branch %#x resident in both BTB1 and BTBP", uint64(a))
		}
	}
	if h.btb2 == nil {
		return nil
	}
	btb2, err := residents(h.btb2, h.cfg.BTB2)
	if err != nil {
		return err
	}
	if h.cfg.Policy == TrueExclusive {
		// Even the paper's truly-exclusive sketch tolerates transient
		// BTBP/BTB2 overlap (exclusivity is enforced when entries move);
		// the hard invariant is BTB1 vs BTB2.
		for _, a := range btb2 {
			if inBTB1[a] {
				return fmt.Errorf("core: true-exclusive violated: %#x in BTB1 and BTB2", uint64(a))
			}
		}
	}
	return nil
}

// residents returns the addresses of t's valid entries in storage
// order. It fails when an entry is stored in a row other than the one
// its address indexes: a hardware array cannot do that (the index
// selects the row), so fault injection must never do it either.
func residents(t *btb.Table, cfg btb.Config) ([]zaddr.Addr, error) {
	var out []zaddr.Addr
	for i, e := range t.State().Slots {
		if !e.Valid {
			continue
		}
		if row := i / cfg.Ways; t.RowFor(e.Addr) != row {
			return nil, fmt.Errorf("btb %s: entry %#x stored in row %d but indexes row %d",
				cfg.Name, uint64(e.Addr), row, t.RowFor(e.Addr))
		}
		out = append(out, e.Addr)
	}
	return out, nil
}

func residencySet(addrs []zaddr.Addr) map[zaddr.Addr]bool {
	m := make(map[zaddr.Addr]bool, len(addrs))
	for _, a := range addrs {
		m[a] = true
	}
	return m
}

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
				if err := h.checkInvariants(); err != nil {
					t.Logf("seed %d policy %v step %d: %v", seed, policy, step, err)
					return false
				}
			}
		}
		h.Advance(now + 100000)
		return h.checkInvariants() == nil
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
	if err := h.checkInvariants(); err != nil {
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
	if err := h.checkInvariants(); err == nil {
		t.Fatal("duplicate across BTB1/BTBP not detected")
	}
}

// entryOf builds a btb.Entry from a taken-branch instruction.
func entryOf(in trace.Inst) btb.Entry {
	return btb.Entry{Valid: true, Addr: in.Addr, Target: in.Target, Length: in.Length}
}

package engine

import (
	"math/rand"
	"slices"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

func TestAddrSetEdgeAddresses(t *testing.T) {
	var s addrSet
	s.reset()
	for _, a := range []zaddr.Addr{0, ^zaddr.Addr(0), 1} {
		if !s.add(a) {
			t.Errorf("first add(%#x) reported present", uint64(a))
		}
		if s.add(a) {
			t.Errorf("second add(%#x) reported absent", uint64(a))
		}
	}
	if got, want := s.sorted(), []uint64{0, 1, ^uint64(0)}; !slices.Equal(got, want) {
		t.Errorf("sorted = %#x, want %#x", got, want)
	}
	s.reset()
	if s.len() != 0 || !s.add(0) || !s.add(^zaddr.Addr(0)) {
		t.Error("reset kept addresses 0 or ^0")
	}
}

// TestAddrSetMatchesMap grows the set well past its initial table
// against a map, then reuses it across a reset without allocating.
func TestAddrSetMatchesMap(t *testing.T) {
	var s addrSet
	s.reset()
	ref := map[zaddr.Addr]bool{}
	r := rand.New(rand.NewSource(3))
	addrs := make([]zaddr.Addr, 0, 4*seenInitSlots)
	for len(addrs) < cap(addrs) {
		// Dense, aligned and repeated addresses, like branch addresses.
		a := zaddr.Addr(0x10000 + 2*r.Intn(3*seenInitSlots))
		if r.Intn(8) == 0 {
			a = zaddr.Addr(r.Uint64())
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if got, want := s.add(a), !ref[a]; got != want {
			t.Fatalf("add(%#x) = %v, want %v", uint64(a), got, want)
		}
		ref[a] = true
	}
	if len(s.slots) <= seenInitSlots {
		t.Fatalf("%d addresses never grew the %d-slot table", len(ref), seenInitSlots)
	}
	want := make([]uint64, 0, len(ref))
	for a := range ref {
		want = append(want, uint64(a))
	}
	slices.Sort(want)
	if got := s.sorted(); !slices.Equal(got, want) || s.len() != len(want) {
		t.Fatalf("set holds %d addresses (len %d), map %d", len(got), s.len(), len(want))
	}
	allocs := testing.AllocsPerRun(5, func() {
		s.reset()
		for _, a := range addrs {
			s.add(a)
		}
	})
	if allocs != 0 {
		t.Errorf("refilling a reset set allocates %.1f objects, want 0", allocs)
	}
	if s.len() != len(want) {
		t.Errorf("refilled set holds %d addresses, want %d", s.len(), len(want))
	}
}

// TestCheckpointSeenSortedAndComplete: a checkpoint's Seen lists every
// branch address of the processed prefix once, in increasing order.
func TestCheckpointSeenSortedAndComplete(t *testing.T) {
	prof := checkpointProfile()
	p := DefaultParams()
	p.CheckpointInterval = 50_000
	var ck *Checkpoint
	p.CheckpointSink = func(c *Checkpoint) {
		if ck == nil {
			ck = c
		}
	}
	Run(workload.New(prof), core.DefaultConfig(), p, "seen")
	if ck == nil {
		t.Fatal("no checkpoint taken")
	}
	src := workload.New(prof)
	ref := map[uint64]bool{}
	for i := int64(0); i < ck.Instructions; i++ {
		in, ok := src.Next()
		if !ok {
			t.Fatal("trace shorter than the checkpoint")
		}
		if in.IsBranch() {
			ref[uint64(in.Addr)] = true
		}
	}
	if !slices.IsSorted(ck.Seen) || len(slices.Compact(slices.Clone(ck.Seen))) != len(ck.Seen) {
		t.Fatal("checkpoint Seen is not strictly increasing")
	}
	if len(ck.Seen) != len(ref) {
		t.Fatalf("checkpoint Seen holds %d addresses, the prefix has %d branches", len(ck.Seen), len(ref))
	}
	for _, a := range ck.Seen {
		if !ref[a] {
			t.Fatalf("checkpoint Seen holds %#x, not a branch of the prefix", a)
		}
	}
}

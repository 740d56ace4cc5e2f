package bht

import (
	"testing"
	"testing/quick"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
	"bulkpreload/internal/zaddr"
)

func TestBimodalTransitions(t *testing.T) {
	// Exhaustive transition table.
	cases := []struct {
		from  Bimodal
		taken bool
		want  Bimodal
	}{
		{StrongNT, false, StrongNT},
		{StrongNT, true, WeakNT},
		{WeakNT, false, StrongNT},
		{WeakNT, true, WeakT},
		{WeakT, false, WeakNT},
		{WeakT, true, StrongT},
		{StrongT, false, WeakT},
		{StrongT, true, StrongT},
	}
	for _, c := range cases {
		if got := c.from.Update(c.taken); got != c.want {
			t.Errorf("%v.Update(%v) = %v, want %v", c.from, c.taken, got, c.want)
		}
	}
}

func TestBimodalPredicates(t *testing.T) {
	if StrongNT.Taken() || WeakNT.Taken() {
		t.Error("not-taken states predict taken")
	}
	if !WeakT.Taken() || !StrongT.Taken() {
		t.Error("taken states predict not-taken")
	}
}

func TestBimodalInit(t *testing.T) {
	if Init(true) != WeakT || Init(false) != WeakNT {
		t.Error("Init must produce weak states")
	}
}

func TestBimodalHysteresis(t *testing.T) {
	// A strongly-taken counter needs two not-taken outcomes to flip its
	// prediction — the defining property of 2-bit counters.
	b := StrongT
	b = b.Update(false)
	if !b.Taken() {
		t.Fatal("one not-taken flipped a strong counter")
	}
	b = b.Update(false)
	if b.Taken() {
		t.Fatal("two not-takens did not flip the counter")
	}
}

func TestBimodalSaturationProperty(t *testing.T) {
	f := func(start uint8, outcomes []bool) bool {
		b := Bimodal(start % 4)
		for _, o := range outcomes {
			b = b.Update(o)
			if b > StrongT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBimodalString(t *testing.T) {
	for b, want := range map[Bimodal]string{
		StrongNT: "strong-nt", WeakNT: "weak-nt", WeakT: "weak-t", StrongT: "strong-t", Bimodal(9): "invalid",
	} {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}

func TestSurpriseBHT(t *testing.T) {
	s := NewSurpriseBHT(1024)
	if len(s.bits) != 1024 {
		t.Fatalf("entries = %d", len(s.bits))
	}
	a := zaddr.Addr(0x4000)
	if s.Guess(a, false) || !s.Guess(a, true) {
		t.Error("fresh table overrides the static guess")
	}
	s.Update(a, true)
	if !s.Guess(a, false) {
		t.Error("update not visible")
	}
	s.Update(a, false)
	if s.Guess(a, true) {
		t.Error("second update not visible")
	}
}

func TestSurpriseBHTAliasing(t *testing.T) {
	s := NewSurpriseBHT(64)
	// Addresses 2*64 halfwords apart alias in a 64-entry table.
	a := zaddr.Addr(0x1000)
	b := a + 64*2
	s.Update(a, true)
	if !s.Guess(b, false) {
		t.Error("expected aliasing between congruent addresses")
	}
	// Halfword-adjacent addresses must not collapse to one entry.
	s2 := NewSurpriseBHT(1024)
	s2.Update(0x1000, true)
	if s2.Guess(0x1002, false) {
		t.Error("adjacent halfwords alias; index must use bits above bit 63")
	}
}

func TestSurpriseBHTReset(t *testing.T) {
	s := NewSurpriseBHT(64)
	for i := 0; i < 64; i++ {
		s.Update(zaddr.Addr(i*2), true)
	}
	s.Reset()
	for i := 0; i < 64; i++ {
		if s.Guess(zaddr.Addr(i*2), false) {
			t.Fatal("Reset left state behind")
		}
	}
}

func TestSurpriseBHTBadSize(t *testing.T) {
	for _, n := range []int{0, -8, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSurpriseBHT(%d) did not panic", n)
				}
			}()
			NewSurpriseBHT(n)
		}()
	}
}

func TestDefaultSurpriseEntries(t *testing.T) {
	// The paper specifies a 32k-entry one-bit BHT.
	if DefaultSurpriseEntries != 32768 {
		t.Errorf("DefaultSurpriseEntries = %d", DefaultSurpriseEntries)
	}
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	s := NewSurpriseBHT(1024)
	r := obs.NewRegistry()
	s.RegisterMetrics(r, "sbht_")
	obstest.RequireRegistered(t, r, &s.met)
}

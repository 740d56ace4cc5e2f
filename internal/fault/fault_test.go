package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/obstest"
)

func TestNilInjectorIsSafeAndFree(t *testing.T) {
	var j *Injector
	if bits, ok := j.Strike(); ok || bits != 0 {
		t.Error("nil injector struck")
	}
	if j.Parity() {
		t.Error("nil injector reports parity")
	}
	j.NoteRecovered()
	j.NoteSilent()
	j.Reset()
	if j.Reads() != 0 || j.Name() != "" {
		t.Error("nil injector has state")
	}
	if s := j.Stats(); s != (Stats{}) {
		t.Errorf("nil injector stats = %+v", s)
	}
}

func TestNewInjectorDisabledRate(t *testing.T) {
	if j := NewInjector("x", 0, Unprotected, 1); j != nil {
		t.Error("zero rate built an injector")
	}
	if j := NewInjector("x", -1, Unprotected, 1); j != nil {
		t.Error("negative rate built an injector")
	}
}

// collectStrikes drives n reads and returns the ordinals that struck.
func collectStrikes(j *Injector, n int) []uint64 {
	var hits []uint64
	for i := 0; i < n; i++ {
		if _, ok := j.Strike(); ok {
			hits = append(hits, j.Reads())
		}
	}
	return hits
}

func TestStrikeDeterministicAndResetReplays(t *testing.T) {
	const n = 500_000
	a := NewInjector("btb1", 50, Unprotected, 42)
	b := NewInjector("btb1", 50, Unprotected, 42)
	ha := collectStrikes(a, n)
	hb := collectStrikes(b, n)
	if len(ha) == 0 {
		t.Fatal("no strikes in 500k reads at 50/M")
	}
	if !reflect.DeepEqual(ha, hb) {
		t.Error("same seed/rate produced different strike schedules")
	}
	// Reset replays the identical stream.
	a.Reset()
	if a.Reads() != 0 || a.Stats() != (Stats{}) {
		t.Error("Reset did not clear state")
	}
	if hr := collectStrikes(a, n); !reflect.DeepEqual(ha, hr) {
		t.Error("post-Reset schedule differs from the original")
	}
	// A different seed strikes differently.
	c := NewInjector("btb1", 50, Unprotected, 43)
	if reflect.DeepEqual(ha, collectStrikes(c, n)) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestStrikeRateMatchesGeometricSchedule(t *testing.T) {
	const (
		perM  = 200.0
		reads = 4_000_000
	)
	j := NewInjector("pht", perM, Unprotected, 7)
	hits := len(collectStrikes(j, reads))
	want := perM / 1e6 * reads
	// Geometric arrivals: the count concentrates tightly around the
	// mean; 25% slack is far beyond statistical noise at n=800.
	if math.Abs(float64(hits)-want) > 0.25*want {
		t.Errorf("observed %d strikes in %d reads, want about %.0f", hits, reads, want)
	}
	if j.Stats().Injected != int64(hits) {
		t.Errorf("injected counter %d != observed strikes %d", j.Stats().Injected, hits)
	}
}

func TestParityCountsRecoveriesAsDetections(t *testing.T) {
	j := NewInjector("btbp", 1000, Parity, 3)
	for i := 0; i < 100_000; i++ {
		if _, ok := j.Strike(); ok {
			j.NoteRecovered()
		}
	}
	s := j.Stats()
	if s.Injected == 0 {
		t.Fatal("no strikes")
	}
	if s.Detected != s.Recovered {
		t.Errorf("detected %d != recovered %d", s.Detected, s.Recovered)
	}
	if s.Detected != s.Injected {
		t.Errorf("parity detected %d of %d injected", s.Detected, s.Injected)
	}
	if s.Silent != 0 {
		t.Errorf("parity run counted %d silent faults", s.Silent)
	}
}

func TestRegisterMetrics(t *testing.T) {
	j := NewInjector("btb1", 5000, Parity, 11)
	r := obs.NewRegistry()
	j.RegisterMetrics(r, "fault_btb1_")
	for i := 0; i < 10_000; i++ {
		if _, ok := j.Strike(); ok {
			j.NoteRecovered()
		}
	}
	snap := r.Snapshot(1)
	if got := snap.Counter("fault_btb1_injected_total"); got != j.Stats().Injected {
		t.Errorf("metric injected %d != stats %d", got, j.Stats().Injected)
	}
	if got := snap.Counter("fault_btb1_recovered_total"); got != j.Stats().Recovered {
		t.Errorf("metric recovered %d != stats %d", got, j.Stats().Recovered)
	}
}

func TestConfigValidate(t *testing.T) {
	good := ZEC12Rates(1, 10, Parity)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if !good.Enabled() {
		t.Error("configured rates not enabled")
	}
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	bad := Config{BTB1PerM: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	nan := Config{PHTPerM: math.NaN()}
	if err := nan.Validate(); err == nil {
		t.Error("NaN rate accepted")
	}
	prot := Config{Protection: Protection(9)}
	if err := prot.Validate(); err == nil {
		t.Error("unknown protection accepted")
	}
}

func TestZEC12RatesWeights(t *testing.T) {
	c := ZEC12Rates(5, 100, Unprotected)
	if c.BTB2PerM != 200 {
		t.Errorf("BTB2 weight = %v, want 2x base", c.BTB2PerM)
	}
	if c.BTBPPerM != 10 {
		t.Errorf("BTBP weight = %v, want base/10", c.BTBPPerM)
	}
	if c.BTB1PerM != 100 || c.PHTPerM != 100 || c.CTBPerM != 100 || c.SBHTPerM != 100 {
		t.Error("SRAM structures not at base rate")
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range []string{"btb1", "btbp", "btb2", "pht", "ctb", "sbht"} {
		s := DeriveSeed(1, name)
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision between %s and %s", name, prev)
		}
		seen[s] = name
		if DeriveSeed(1, name) != s {
			t.Errorf("%s: DeriveSeed not deterministic", name)
		}
		if DeriveSeed(2, name) == s {
			t.Errorf("%s: config seed ignored", name)
		}
	}
}

// passRates are the arrival rates the quiet-window replays run at: a
// strike due on every read (the window is always empty), dense and mid
// rates that cross many strikes in a short replay, and a sparse one
// whose windows run to thousands of reads.
var passRates = []float64{1e6, 3e5, 2e4, 1e3}

// replayPass drives two identically seeded injectors through ops. Each
// op strikes both once, comparing the strikes' random bits, or observes
// a run of reads: next in one Pass of at most the quiet window, its
// twin in as many Strike calls, none of which may strike. Reads, Stats
// and the scheduled strike's ordinal must agree after every op.
func replayPass(t *testing.T, perM float64, p Protection, seed uint64, ops []byte) (strikes, passed int) {
	t.Helper()
	next := NewInjector("x", perM, p, seed)
	twin := NewInjector("x", perM, p, seed)
	for i, op := range ops {
		switch op & 3 {
		case 0, 1:
			nb, nok := next.Strike()
			tb, tok := twin.Strike()
			if nb != tb || nok != tok {
				t.Fatalf("op %d: Strike = %#x,%v, twin %#x,%v", i, nb, nok, tb, tok)
			}
			if nok {
				strikes++
			}
		default:
			n := next.Quiet() // op&3 == 3: the whole window
			if op&3 == 2 {
				n = min(n, uint64(op>>2))
			}
			next.Pass(n)
			for k := uint64(0); k < n; k++ {
				if _, ok := twin.Strike(); ok {
					t.Fatalf("op %d: read %d of a %d-read quiet window struck", i, k+1, n)
				}
			}
			passed += int(n)
		}
		if next.Reads() != twin.Reads() || next.next != twin.next || next.Stats() != twin.Stats() {
			t.Fatalf("op %d: reads %d next %d %+v, twin reads %d next %d %+v",
				i, next.Reads(), next.next, next.Stats(), twin.Reads(), twin.next, twin.Stats())
		}
	}
	return strikes, passed
}

// TestPassWithinQuietWindowIsExact pins the quiet-window contract the
// table reads rely on: observing n <= Quiet() reads in one Pass leaves
// an injector exactly where n missed Strike calls leave it.
func TestPassWithinQuietWindowIsExact(t *testing.T) {
	for _, perM := range passRates {
		for _, p := range []Protection{Unprotected, Parity} {
			r := rand.New(rand.NewSource(int64(perM) + int64(p)))
			ops := make([]byte, 20_000)
			r.Read(ops)
			strikes, passed := replayPass(t, perM, p, uint64(r.Int63()), ops)
			if strikes == 0 || (perM < 1e6 && passed == 0) {
				t.Errorf("%g/M %v: replay struck %d times and passed %d reads", perM, p, strikes, passed)
			}
		}
	}
	var j *Injector
	j.Pass(3) // nil-safe like every other method
	if j.Quiet() != math.MaxUint64 || j.Reads() != 0 {
		t.Error("nil injector's quiet window is bounded")
	}
}

// FuzzInjectorPass drives the same comparison from fuzzer-chosen
// operations, rate, protection and seed.
func FuzzInjectorPass(f *testing.F) {
	f.Add([]byte{0, 3, 0, 2, 6, 3, 1, 3}, uint8(2), uint64(1))
	f.Add([]byte{3, 3, 3, 0, 0, 255, 254, 1}, uint8(5), uint64(99))
	f.Fuzz(func(t *testing.T, ops []byte, mode uint8, seed uint64) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		replayPass(t, passRates[int(mode)%len(passRates)], Protection(mode/4%2), seed, ops)
	})
}

// TestMetricsRegistered pins RegisterMetrics to the metrics struct:
// every declared counter and histogram must reach the registry.
func TestMetricsRegistered(t *testing.T) {
	j := NewInjector("btb1", 50, Unprotected, 42)
	r := obs.NewRegistry()
	j.RegisterMetrics(r, "fault_btb1_")
	obstest.RequireRegistered(t, r, &j.met)
}

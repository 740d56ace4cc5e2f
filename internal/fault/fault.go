// Package fault is a deterministic, seeded soft-error injection
// subsystem for the predictor arrays. The zEC12's prediction state lives
// in SRAM and register-file arrays whose contents are architecturally
// disposable: a wrong BTB/PHT/CTB entry may only ever cost performance
// (a misprediction and re-training), never correctness. This package
// exists to inject bit flips against that property and to model the two
// protection designs such arrays ship with:
//
//   - Unprotected: the flipped bits are written back into the array and
//     silently propagate into predictions until re-training overwrites
//     them.
//   - Parity: corruption is detected when the entry is read; recovery is
//     by invalidation — the entry is dropped, the read misses, and (for
//     the first-level BTBs) the semi-exclusive BTB2 can refetch the
//     branch through the normal bulk-transfer path.
//
// Fault arrival is event-driven and deterministic: each array read of a
// valid entry advances a per-structure counter, and a seeded xorshift
// generator draws geometric inter-arrival gaps at the configured rate
// (faults per million reads). Two runs with the same seed, rates, and
// workload therefore strike the same sites in the same order, which
// makes degradation studies bit-for-bit reproducible.
//
// The disabled path is free: structures hold a nil *Injector and skip
// every hook with one pointer comparison, allocating nothing.
//
// The armed path costs only its strikes. The next strike's ordinal is
// drawn when the previous one lands, so an injector knows its quiet
// window (Quiet): the coming reads certain not to strike. A missed
// Strike only counts the read, so Pass(n) for n within the window is
// exactly n missed Strikes. A structure whose read touches no more
// valid entries than the window holds reads without striking and
// passes the count in one step; only reads a strike can reach pay for
// Strike per entry. Strike's own miss path is small enough to inline.
package fault

import (
	"fmt"
	"math"

	"bulkpreload/internal/obs"
)

// Protection selects the array protection model.
type Protection uint8

const (
	// Unprotected arrays silently serve corrupted entries.
	Unprotected Protection = iota
	// Parity arrays detect corruption on read and recover by
	// invalidating the affected entry.
	Parity
)

// String implements fmt.Stringer.
func (p Protection) String() string {
	switch p {
	case Unprotected:
		return "unprotected"
	case Parity:
		return "parity"
	default:
		return fmt.Sprintf("Protection(%d)", uint8(p))
	}
}

// Config fixes the fault model for one hierarchy instance. The zero
// value disables injection entirely. Rates are expressed as faults per
// million entry reads of the structure; structure seeds are derived from
// Seed so that every array has an independent but reproducible arrival
// stream.
type Config struct {
	Seed       uint64
	Protection Protection

	// Per-structure susceptibility, faults per million entry reads.
	BTB1PerM float64
	BTBPPerM float64
	BTB2PerM float64
	PHTPerM  float64
	CTBPerM  float64
	SBHTPerM float64
}

// Enabled reports whether any structure has a nonzero fault rate.
func (c Config) Enabled() bool {
	return c.BTB1PerM > 0 || c.BTBPPerM > 0 || c.BTB2PerM > 0 ||
		c.PHTPerM > 0 || c.CTBPerM > 0 || c.SBHTPerM > 0
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"BTB1PerM", c.BTB1PerM}, {"BTBPPerM", c.BTBPPerM}, {"BTB2PerM", c.BTB2PerM},
		{"PHTPerM", c.PHTPerM}, {"CTBPerM", c.CTBPerM}, {"SBHTPerM", c.SBHTPerM},
	} {
		if r.v < 0 || math.IsNaN(r.v) || math.IsInf(r.v, 0) {
			return fmt.Errorf("fault: %s must be a non-negative finite rate, got %v", r.name, r.v)
		}
	}
	if c.Protection > Parity {
		return fmt.Errorf("fault: unknown protection %d", c.Protection)
	}
	return nil
}

// ZEC12Rates builds a Config from one base rate, weighted by array
// technology the way the zEC12's structures are built: the large SRAM
// arrays (BTB2 densest, then BTB1/PHT/CTB/surprise BHT) take the base
// rate or more, while the small register-file BTBP is an order of
// magnitude less susceptible. The weights are a modeling choice, not a
// measured FIT rate; see docs/ROBUSTNESS.md.
func ZEC12Rates(seed uint64, basePerM float64, p Protection) Config {
	return Config{
		Seed:       seed,
		Protection: p,
		BTB1PerM:   basePerM,
		BTBPPerM:   basePerM / 10, // register file
		BTB2PerM:   2 * basePerM,  // densest SRAM
		PHTPerM:    basePerM,
		CTBPerM:    basePerM,
		SBHTPerM:   basePerM,
	}
}

// DeriveSeed mixes a structure name into the config seed so each array
// gets an independent deterministic stream (FNV-1a over the name,
// finalized with a splitmix64 round).
func DeriveSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := seed ^ h ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stats is a point-in-time view of one injector's (or an aggregate's)
// counters.
type Stats struct {
	Injected  int64 // faults struck
	Detected  int64 // parity detections on read
	Recovered int64 // entries invalidated to recover
	Silent    int64 // corruptions applied without detection
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Injected += o.Injected
	s.Detected += o.Detected
	s.Recovered += o.Recovered
	s.Silent += o.Silent
}

// metrics is the injector's registry-backed counter set.
type metrics struct {
	injected  obs.Counter
	detected  obs.Counter
	recovered obs.Counter
	silent    obs.Counter
}

// Injector drives fault arrival for one array instance. All methods are
// safe on a nil receiver (a nil *Injector is the disabled state), so
// structures hold one pointer and pay a single comparison when faults
// are off.
type Injector struct {
	name       string
	protection Protection
	perM       float64
	seed       uint64 // initial seed, kept for Reset

	rng   uint64
	reads uint64 // valid-entry reads observed so far
	next  uint64 // read ordinal the next fault strikes at

	met metrics
}

// NewInjector builds an injector for one structure. A rate of zero (or
// less) returns nil — the disabled state.
func NewInjector(name string, perM float64, p Protection, seed uint64) *Injector {
	if perM <= 0 {
		return nil
	}
	j := &Injector{name: name, protection: p, perM: perM, seed: seed}
	j.rearm()
	return j
}

// rearm restores the power-on arrival schedule. The seed is run through
// a splitmix64 round so that near-identical seeds still yield unrelated
// streams (a plain `seed | 1` would collapse even/odd seed pairs).
func (j *Injector) rearm() {
	z := j.seed ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // xorshift state must be nonzero
	}
	j.rng = z
	j.reads = 0
	j.next = 0
	j.advance()
}

// rand steps the xorshift64* generator.
func (j *Injector) rand() uint64 {
	x := j.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	j.rng = x
	return x * 0x2545f4914f6cdd1d
}

// advance schedules the next strike a geometric gap away: inter-arrival
// for a per-read probability p, sampled by inversion from one uniform
// draw. Rates at or above one fault per read strike every read.
func (j *Injector) advance() {
	p := j.perM / 1e6
	if p >= 1 {
		j.next = j.reads + 1
		return
	}
	// u in (0,1): 53 uniform mantissa bits, offset so u is never 0.
	u := (float64(j.rand()>>11) + 0.5) / (1 << 53)
	gap := math.Floor(math.Log(u) / math.Log(1-p))
	if gap < 0 || math.IsNaN(gap) {
		gap = 0
	}
	const maxGap = math.MaxUint64 >> 8
	if gap > maxGap {
		gap = maxGap
	}
	j.next = j.reads + 1 + uint64(gap)
}

// Strike observes one read of a valid entry and reports whether a fault
// strikes it. On a strike it returns random bits the structure uses to
// pick which stored bit flips. Nil receivers never strike. The miss path
// is small enough to inline into a structure's read; the strike itself
// is out of line.
func (j *Injector) Strike() (bits uint64, ok bool) {
	if j != nil {
		if j.reads++; j.reads >= j.next {
			return j.strike(), true
		}
	}
	return 0, false
}

// strike lands the scheduled fault on the current read and schedules
// the next one.
func (j *Injector) strike() uint64 {
	bits := j.rand()
	j.met.injected.Inc()
	j.advance()
	return bits
}

// Quiet returns the quiet window: how many of the coming reads are
// certain not to strike. The next strike is already scheduled (next >
// reads always holds), so the window is the reads before it. A nil
// injector never strikes; its window is unbounded.
func (j *Injector) Quiet() uint64 {
	if j == nil {
		return math.MaxUint64
	}
	return j.next - j.reads - 1
}

// Pass observes n reads of valid entries at once. For n at most Quiet()
// it is exactly n Strike calls that miss: a missed Strike only counts
// the read and draws no random number. A structure whose read touches
// at most Quiet() valid entries may therefore skip the per-entry Strike
// and Pass the count afterwards. Larger n is a caller bug (it would
// skip a scheduled strike).
func (j *Injector) Pass(n uint64) {
	if j != nil {
		j.reads += n
	}
}

// Parity reports whether the injector models a parity-protected array.
func (j *Injector) Parity() bool { return j != nil && j.protection == Parity }

// NoteRecovered counts a parity detection and its recovery-by-
// invalidation. The structure calls it after dropping the entry, so
// detections and recoveries advance together.
func (j *Injector) NoteRecovered() {
	if j == nil {
		return
	}
	j.met.detected.Inc()
	j.met.recovered.Inc()
}

// NoteSilent counts an undetected corruption applied to the array.
func (j *Injector) NoteSilent() {
	if j == nil {
		return
	}
	j.met.silent.Inc()
}

// Name returns the structure name the injector was built for.
func (j *Injector) Name() string {
	if j == nil {
		return ""
	}
	return j.name
}

// Reads returns how many valid-entry reads the injector has observed.
func (j *Injector) Reads() uint64 {
	if j == nil {
		return 0
	}
	return j.reads
}

// Stats returns a view of the counters.
func (j *Injector) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	return Stats{
		Injected:  j.met.injected.Value(),
		Detected:  j.met.detected.Value(),
		Recovered: j.met.recovered.Value(),
		Silent:    j.met.silent.Value(),
	}
}

// Reset restores the injector to its power-on state: counters cleared
// and the arrival schedule re-derived from the original seed, so a
// Reset structure replays the identical fault stream.
func (j *Injector) Reset() {
	if j == nil {
		return
	}
	j.met = metrics{}
	j.rearm()
}

// RegisterMetrics enumerates the injector's counters into r under the
// given prefix, e.g. "fault_btb1_".
func (j *Injector) RegisterMetrics(r *obs.Registry, prefix string) {
	if j == nil {
		return
	}
	r.Counter(prefix+"injected_total", "faults", "bit flips struck on entry reads", &j.met.injected)
	r.Counter(prefix+"detected_total", "faults", "corruptions detected by parity on read", &j.met.detected)
	r.Counter(prefix+"recovered_total", "entries", "entries invalidated to recover from a detected fault", &j.met.recovered)
	r.Counter(prefix+"silent_total", "faults", "corruptions applied without detection", &j.met.silent)
}

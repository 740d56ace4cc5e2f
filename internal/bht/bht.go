// Package bht implements the direction-prediction state machines of the
// zEC12 first-level branch predictor: the 2-bit bimodal counter stored in
// every BTB1/BTBP/BTB2 entry, and the tagless 32k-entry 1-bit surprise
// BHT used to guess the direction of branches that miss the whole first
// level ("surprise branches").
package bht

import (
	"fmt"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// Bimodal is the classic 2-bit saturating direction counter stored per
// BTB entry. The zero value is StrongNT.
type Bimodal uint8

// Bimodal counter states, from strongly not-taken to strongly taken.
const (
	StrongNT Bimodal = iota
	WeakNT
	WeakT
	StrongT
)

// Taken reports the direction the counter currently predicts.
func (b Bimodal) Taken() bool { return b >= WeakT }

// Update returns the counter state after observing an outcome.
func (b Bimodal) Update(taken bool) Bimodal {
	if taken {
		if b == StrongT {
			return StrongT
		}
		return b + 1
	}
	if b == StrongNT {
		return StrongNT
	}
	return b - 1
}

// Init returns the counter state appropriate for a newly installed entry
// that was just observed with the given outcome (weakly biased, as a
// single observation warrants).
func Init(taken bool) Bimodal {
	if taken {
		return WeakT
	}
	return WeakNT
}

// String implements fmt.Stringer.
func (b Bimodal) String() string {
	switch b {
	case StrongNT:
		return "strong-nt"
	case WeakNT:
		return "weak-nt"
	case WeakT:
		return "weak-t"
	case StrongT:
		return "strong-t"
	default:
		return "invalid"
	}
}

// SurpriseBHT is the tagless one-bit branch history table consulted for
// surprise branches, combined by the caller with the static opcode guess.
// The shipping design has 32k entries. Slots that have never been trained
// defer to the static opcode/instruction-text guess (Guess), modelling
// the paper's "guessed based on a tagless 32k entry one-bit BHT, its
// opcode and other instruction text fields".
type SurpriseBHT struct {
	bits    []bool
	touched []bool
	mask    uint64
	inj     *fault.Injector // soft-error injection on Guess; nil = off
	met     surpriseMetrics
}

// SetInjector attaches (or, with nil, detaches) a fault injector.
func (s *SurpriseBHT) SetInjector(j *fault.Injector) { s.inj = j }

// Injector returns the attached injector (nil when faults are off).
func (s *SurpriseBHT) Injector() *fault.Injector { return s.inj }

// surpriseMetrics is the surprise BHT's registry-backed counter set.
type surpriseMetrics struct {
	guesses        obs.Counter
	trainedGuesses obs.Counter
	updates        obs.Counter
}

// DefaultSurpriseEntries is the zEC12 surprise BHT size.
const DefaultSurpriseEntries = 32 * 1024

// NewSurpriseBHT builds a surprise BHT with the given number of entries
// (must be a power of two).
func NewSurpriseBHT(entries int) *SurpriseBHT {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bht: surprise BHT entries must be a positive power of two")
	}
	return &SurpriseBHT{
		bits:    make([]bool, entries),
		touched: make([]bool, entries),
		mask:    uint64(entries - 1),
	}
}

// index hashes a branch address to a table slot. Instruction addresses
// are halfword aligned, so bit 63 carries no information; drop it.
func (s *SurpriseBHT) index(a zaddr.Addr) uint64 { return zaddr.Halfword(a) & s.mask }

// Guess combines the table with the static opcode-derived guess: trained
// slots supply the dynamic bit, untrained slots fall back to the static
// guess.
func (s *SurpriseBHT) Guess(a zaddr.Addr, staticTaken bool) bool {
	s.met.guesses.Inc()
	i := s.index(a)
	if s.inj != nil && s.touched[i] {
		if _, ok := s.inj.Strike(); ok {
			s.strikeSlot(i)
		}
	}
	if s.touched[i] {
		s.met.trainedGuesses.Inc()
		return s.bits[i]
	}
	return staticTaken
}

// strikeSlot lands a fault the injector struck on trained slot i. The
// only stored payload is the one direction bit, so an unprotected fault
// flips it; parity recovery clears the slot back to untrained (the
// static guess takes over until the branch retrains it).
func (s *SurpriseBHT) strikeSlot(i uint64) {
	if s.inj.Parity() {
		s.bits[i] = false
		s.touched[i] = false
		s.inj.NoteRecovered()
		return
	}
	s.bits[i] = !s.bits[i]
	s.inj.NoteSilent()
}

// Update records a resolved direction for the branch at a.
func (s *SurpriseBHT) Update(a zaddr.Addr, taken bool) {
	s.met.updates.Inc()
	i := s.index(a)
	s.bits[i] = taken
	s.touched[i] = true
}

// RegisterMetrics enumerates the surprise BHT counters (plus a computed
// trained-slot occupancy gauge) into r under the given prefix, e.g.
// "sbht_".
func (s *SurpriseBHT) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"guesses_total", "guesses", "surprise-branch direction guesses served", &s.met.guesses)
	r.Counter(prefix+"trained_guesses_total", "guesses", "guesses answered by a trained slot", &s.met.trainedGuesses)
	r.Counter(prefix+"updates_total", "updates", "resolved directions recorded", &s.met.updates)
	r.GaugeFunc(prefix+"occupancy_entries", "entries", "trained one-bit slots",
		func() int64 { return int64(s.CountTrained()) })
}

// CountTrained returns the number of slots that have been trained.
func (s *SurpriseBHT) CountTrained() int {
	n := 0
	for i := range s.touched {
		if s.touched[i] {
			n++
		}
	}
	return n
}

// Reset clears all history.
func (s *SurpriseBHT) Reset() {
	for i := range s.bits {
		s.bits[i] = false
		s.touched[i] = false
	}
	s.met = surpriseMetrics{}
}

// State is a serializable copy of the surprise BHT's architectural
// contents.
type State struct {
	Bits    []bool
	Touched []bool
}

// State returns a deep copy of the table's architectural state.
func (s *SurpriseBHT) State() State {
	return State{
		Bits:    append([]bool(nil), s.bits...),
		Touched: append([]bool(nil), s.touched...),
	}
}

// RestoreState overwrites the table's contents with st, which must come
// from a table of identical size.
func (s *SurpriseBHT) RestoreState(st State) error {
	if len(st.Bits) != len(s.bits) || len(st.Touched) != len(s.touched) {
		return fmt.Errorf("bht: state has %d/%d slots, table has %d", len(st.Bits), len(st.Touched), len(s.bits))
	}
	copy(s.bits, st.Bits)
	copy(s.touched, st.Touched)
	return nil
}

// Package core implements the paper's primary contribution: the
// two-level bulk preload branch prediction hierarchy of the IBM zEC12
// (Section 3). It wires together the BTB1, the BTBP preload/filter/victim
// table, the BTB2 second level with its bulk-transfer machinery (search
// trackers + steering), the PHT/CTB/FIT auxiliary predictors and the
// surprise BHT, and implements the semi-exclusive content-movement policy
// of Section 3.3:
//
//   - all first-level writes land in the BTBP (surprise installs, BTB2
//     transfer hits, BTB1 victims);
//   - a BTBP entry is promoted into the BTB1 only when it makes a
//     prediction, and the displaced BTB1 victim moves to the BTBP and the
//     BTB2 (written into the BTB2's LRU way and made MRU);
//   - an entry copied from the BTB2 to the BTBP is made LRU in the BTB2 so
//     subsequent victims replace it, approximating exclusivity without
//     invalidation write traffic;
//   - the BTB2 never makes predictions directly.
package core

import (
	"fmt"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/btb"
	"bulkpreload/internal/ctb"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/fit"
	"bulkpreload/internal/pht"
	"bulkpreload/internal/predictor"
	"bulkpreload/internal/tracker"
)

// Policy selects the inter-level content-movement policy. SemiExclusive
// is the shipping design; the others exist for the ablation study of the
// trade-off discussed in Section 3.3.
type Policy uint8

const (
	// SemiExclusive: BTB2 hits are demoted to LRU (no invalidate write);
	// BTB1 victims overwrite the BTB2 LRU way and become MRU.
	SemiExclusive Policy = iota
	// TrueExclusive: BTB2 hits are invalidated on transfer, and surprise
	// installs skip the BTB2 when the branch is already in the BTB1 —
	// maximum unique capacity at maximum write cost.
	TrueExclusive
	// Inclusive: BTB2 hits stay MRU; victims update the BTB2 copy in
	// place; every install writes both levels.
	Inclusive
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SemiExclusive:
		return "semi-exclusive"
	case TrueExclusive:
		return "true-exclusive"
	case Inclusive:
		return "inclusive"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// MissMode selects how BTB1 misses are detected and reported to the
// BTB2 trackers (Section 3.4 describes the shipping speculative
// definition and sketches decode-time alternatives; Section 6 lists the
// early-speculative vs late-precise trade-off as future work).
type MissMode uint8

const (
	// MissSpeculative reports a miss after N consecutive predictionless
	// searches (N = Miss.SearchLimit) — early but speculative; the
	// shipping design.
	MissSpeculative MissMode = iota
	// MissDecodeSurprise reports a miss only when a surprise branch that
	// is statically guessed taken is actually encountered — late but
	// precise (no false misses; no I-cache filtering needed).
	MissDecodeSurprise
	// MissBoth combines the two.
	MissBoth
)

// String implements fmt.Stringer.
func (m MissMode) String() string {
	switch m {
	case MissSpeculative:
		return "speculative"
	case MissDecodeSurprise:
		return "decode-surprise"
	case MissBoth:
		return "both"
	default:
		return fmt.Sprintf("MissMode(%d)", uint8(m))
	}
}

// Speculative reports whether the mode includes the speculative
// empty-search detector.
func (m MissMode) Speculative() bool { return m == MissSpeculative || m == MissBoth }

// DecodeSurprise reports whether the mode includes decode-time surprise
// reporting.
func (m MissMode) DecodeSurprise() bool { return m == MissDecodeSurprise || m == MissBoth }

// Config assembles a full hierarchy configuration. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	BTB1 btb.Config
	BTBP btb.Config
	// BTB2 is ignored unless BTB2Enabled.
	BTB2        btb.Config
	BTB2Enabled bool

	// Auxiliary predictors. Entry counts of zero disable the structure.
	PHTEntries         int
	CTBEntries         int
	FITEntries         int
	SurpriseBHTEntries int

	// Tracker and steering parameters (BTB2 side).
	Tracker         tracker.Config
	SteeringEntries int
	SteeringWays    int
	// UseSteering false degrades full searches to sequential order.
	UseSteering bool

	// Miss detection (Section 3.4).
	Miss predictor.MissConfig
	// MissMode selects speculative vs decode-time miss reporting.
	MissMode MissMode

	// SurpriseInstallDelay is the number of cycles between a surprise
	// branch resolving and its BTBP entry becoming visible to the search
	// pipeline (write happens at completion time). Surprises re-executed
	// inside this window are latency misses.
	SurpriseInstallDelay uint64

	// InstallNotTaken also installs never-taken surprise branches. The
	// hardware installs only ever-taken branches (a fall-through needs no
	// BTB entry); kept as an ablation knob.
	InstallNotTaken bool

	// BypassBTBP routes all first-level installs (surprise installs,
	// preloads, bulk-transfer hits) directly into the BTB1 instead of
	// the BTBP — the design the paper argues against: "An additional
	// small BTB [the BTBP] is used to prevent bulk second level
	// transfers from polluting the main first level predictor."
	// Ablation knob; the BTBP still exists but only receives victims.
	BypassBTBP bool

	// Fault configures soft-error injection into the predictor arrays
	// (see internal/fault). The zero value disables it; disabled
	// injection costs one nil pointer check per array read.
	Fault fault.Config

	// MultiBlockTransfer enables the Section 6 future-work extension:
	// when a bulk transfer surfaces branches whose targets leave the
	// block, the most-referenced target block is chased with one
	// secondary full search (bounded to avoid the exponential fan-out
	// the paper warns about).
	MultiBlockTransfer bool

	Policy Policy
}

// DefaultConfig returns the shipping zEC12 two-level configuration
// (Table 3 configuration 2).
func DefaultConfig() Config {
	return Config{
		BTB1:                 btb.BTB1Config,
		BTBP:                 btb.BTBPConfig,
		BTB2:                 btb.BTB2Config,
		BTB2Enabled:          true,
		PHTEntries:           pht.DefaultEntries,
		CTBEntries:           ctb.DefaultEntries,
		FITEntries:           fit.DefaultEntries,
		SurpriseBHTEntries:   bht.DefaultSurpriseEntries,
		Tracker:              tracker.DefaultConfig,
		SteeringEntries:      512,
		SteeringWays:         2,
		UseSteering:          true,
		Miss:                 predictor.DefaultMissConfig,
		SurpriseInstallDelay: 24,
		Policy:               SemiExclusive,
	}
}

// OneLevelConfig returns Table 3 configuration 1: the baseline with the
// BTB2 disabled.
func OneLevelConfig() Config {
	c := DefaultConfig()
	c.BTB2Enabled = false
	return c
}

// LargeOneLevelConfig returns Table 3 configuration 3: the
// "unrealistically large" 24k-entry low-latency one-level BTB1.
func LargeOneLevelConfig() Config {
	c := OneLevelConfig()
	c.BTB1 = btb.LargeBTB1Config
	return c
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.BTB1.Validate(); err != nil {
		return err
	}
	if err := c.BTBP.Validate(); err != nil {
		return err
	}
	if c.BTB2Enabled {
		if err := c.BTB2.Validate(); err != nil {
			return err
		}
		if err := c.Tracker.Validate(); err != nil {
			return err
		}
		if c.UseSteering && (c.SteeringEntries <= 0 || c.SteeringWays <= 0) {
			return fmt.Errorf("core: steering enabled with invalid geometry %d/%d",
				c.SteeringEntries, c.SteeringWays)
		}
	}
	if err := c.Miss.Validate(); err != nil {
		return err
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"PHTEntries", c.PHTEntries},
		{"CTBEntries", c.CTBEntries},
		{"FITEntries", c.FITEntries},
		{"SurpriseBHTEntries", c.SurpriseBHTEntries},
	} {
		if n.v < 0 {
			return fmt.Errorf("core: %s must be non-negative", n.name)
		}
	}
	if c.Policy > Inclusive {
		return fmt.Errorf("core: unknown policy %d", c.Policy)
	}
	if c.MissMode > MissBoth {
		return fmt.Errorf("core: unknown miss mode %d", c.MissMode)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// FirstLevelCapacity returns the number of branches the first level can
// hold (BTB1 + BTBP).
func (c Config) FirstLevelCapacity() int {
	return c.BTB1.Capacity() + c.BTBP.Capacity()
}

// EstimatedFootprint returns the estimated instruction footprint covered
// by the first level in bytes, using the paper's 24-30 bytes per entry
// rule of thumb (returns low and high bounds).
func (c Config) EstimatedFootprint() (lo, hi int) {
	n := c.FirstLevelCapacity()
	return n * 24, n * 30
}

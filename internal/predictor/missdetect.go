package predictor

import (
	"fmt"

	"bulkpreload/internal/zaddr"
)

// MissConfig parameterizes the speculative BTB1-miss definition of
// Section 3.4: report a miss after SearchLimit consecutive row searches
// (SearchLimit * 32 bytes) with no prediction found. The shipping design
// uses 4 searches / 128 bytes; Figure 6 sweeps this parameter.
type MissConfig struct {
	SearchLimit int
}

// DefaultMissConfig is the zEC12 setting ("the actual setting of 4
// searches, 128 bytes, used in the performance studies").
var DefaultMissConfig = MissConfig{SearchLimit: 4}

// Validate checks the configuration.
func (c MissConfig) Validate() error {
	if c.SearchLimit <= 0 {
		return fmt.Errorf("predictor: miss search limit %d must be positive", c.SearchLimit)
	}
	return nil
}

// MissDetector is the Table 2 state machine. The search process reports
// each row search and whether it produced any prediction; after
// SearchLimit consecutive empty searches the detector reports a BTB1 miss
// anchored at the starting search address of the empty window.
//
// The detector keeps counting after a report so that a long predictionless
// run reports one miss per window (each window covering SearchLimit rows
// of fresh address space), which lets cold-code runs trip multiple
// trackers across 4 KB blocks.
type MissDetector struct {
	cfg MissConfig

	windowStart zaddr.Addr // starting search address of the current window
	emptyCount  int
	haveWindow  bool

	reported int64
}

// NewMissDetector builds a detector; invalid config panics.
func NewMissDetector(cfg MissConfig) *MissDetector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &MissDetector{cfg: cfg}
}

// Config returns the detector's configuration.
func (d *MissDetector) Config() MissConfig { return d.cfg }

// Reported returns the number of misses reported so far.
func (d *MissDetector) Reported() int64 { return d.reported }

// Reset returns the detector to its power-on state.
func (d *MissDetector) Reset() { *d = MissDetector{cfg: d.cfg} }

// Restart resets the window, e.g. after a pipeline restart or a
// predicted-taken redirect to a new search address.
func (d *MissDetector) Restart() {
	d.haveWindow = false
	d.emptyCount = 0
}

// ObserveSearch records one row search beginning at searchAddr. found
// reports whether the first level produced any prediction from that row.
// When the empty-search limit is reached, ObserveSearch returns the miss
// anchor address and true, and opens a fresh window.
func (d *MissDetector) ObserveSearch(searchAddr zaddr.Addr, found bool) (missAt zaddr.Addr, miss bool) {
	if found {
		d.Restart()
		return 0, false
	}
	if !d.haveWindow {
		d.haveWindow = true
		d.windowStart = searchAddr
		d.emptyCount = 0
	}
	d.emptyCount++
	if d.emptyCount < d.cfg.SearchLimit {
		return 0, false
	}
	anchor := d.windowStart
	d.haveWindow = false
	d.emptyCount = 0
	d.reported++
	return anchor, true
}

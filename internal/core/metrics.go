package core

import (
	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// Detail-metric map capacity bounds. The derived latency metrics
// (promotion age, miss-to-install) need per-address bookkeeping; these
// caps keep that bookkeeping from growing without bound on pathological
// traces. When a map is full, new samples are simply not tracked — the
// histograms under-count rather than the simulator over-allocating.
const (
	maxInstalledAt = 1 << 15
	maxMissAt      = 4096
)

// hierCounters is the hierarchy's registry-backed counter set. It is a
// separate struct from hierMetrics so Reset can zero all counters with
// one assignment without disturbing the histograms' bucket bounds.
type hierCounters struct {
	predictions      obs.Counter
	btb1Hits         obs.Counter
	btbpHits         obs.Counter
	promotions       obs.Counter
	btb1Victims      obs.Counter
	surpriseInstalls obs.Counter
	preloadInstalls  obs.Counter
	phtOverrides     obs.Counter
	ctbOverrides     obs.Counter
	transferredHits  obs.Counter
	transferReads    obs.Counter
	btb2Writes       obs.Counter
	chainedSearches  obs.Counter
	missReports      obs.Counter
	icacheReports    obs.Counter
}

// hierMetrics is the hierarchy's full metric state: counters plus the
// distribution metrics of Section 5's behavioural questions — how long
// entries sit in the BTBP before promotion, how many entries one BTB2
// row read delivers, and how long a miss waits for its bulk transfer.
type hierMetrics struct {
	counters hierCounters

	promotionAge  obs.Histogram // cycles from BTBP install to promotion
	transferBurst obs.Histogram // entries delivered per BTB2 row read
	missToInstall obs.Histogram // cycles from miss report to first transfer install
}

// setBounds fixes the histogram buckets; called once at construction.
func (m *hierMetrics) setBounds() {
	m.promotionAge.SetBounds(16, 64, 256, 1024, 4096, 16384)
	m.transferBurst.SetBounds(0, 1, 2, 3, 4, 6)
	m.missToInstall.SetBounds(8, 16, 32, 64, 128, 256, 1024)
}

// RegisterMetrics enumerates every hierarchy metric into r: the
// hierarchy's own counters and histograms under "hier_", and each
// constituent structure under its own prefix ("btb1_", "btbp_",
// "btb2_", "pht_", "ctb_", "fit_", "sbht_", "steering_", "tracker_").
// Disabled structures register nothing.
func (h *Hierarchy) RegisterMetrics(r *obs.Registry) {
	c := &h.met.counters
	r.Counter("hier_predictions_total", "predictions", "dynamic predictions made", &c.predictions)
	r.Counter("hier_btb1_hits_total", "predictions", "predictions served by the BTB1", &c.btb1Hits)
	r.Counter("hier_btbp_hits_total", "predictions", "predictions served by the BTBP", &c.btbpHits)
	r.Counter("hier_promotions_total", "entries", "BTBP entries moved into the BTB1", &c.promotions)
	r.Counter("hier_btb1_victims_total", "entries", "BTB1 victims displaced by promotions", &c.btb1Victims)
	r.Counter("hier_surprise_installs_total", "entries", "surprise-branch installs queued", &c.surpriseInstalls)
	r.Counter("hier_preload_installs_total", "entries", "branch-preload-instruction installs queued", &c.preloadInstalls)
	r.Counter("hier_pht_overrides_total", "predictions", "directions supplied by the PHT", &c.phtOverrides)
	r.Counter("hier_ctb_overrides_total", "predictions", "targets supplied by the CTB", &c.ctbOverrides)
	r.Counter("hier_transferred_hits_total", "entries", "BTB2 entries bulk-moved into the BTBP", &c.transferredHits)
	r.Counter("hier_transfer_reads_total", "rows", "BTB2 row reads performed", &c.transferReads)
	r.Counter("hier_btb2_writes_total", "entries", "entries written into the BTB2", &c.btb2Writes)
	r.Counter("hier_chained_searches_total", "searches", "secondary multi-block searches launched", &c.chainedSearches)
	r.Counter("hier_miss_reports_total", "events", "BTB1 misses reported to the trackers", &c.missReports)
	r.Counter("hier_icache_reports_total", "events", "L1I misses reported to the trackers", &c.icacheReports)
	r.Histogram("hier_promotion_age_cycles", "cycles", "BTBP residency at promotion (detail mode)", &h.met.promotionAge)
	r.Histogram("hier_transfer_burst_entries", "entries", "entries delivered per BTB2 row read", &h.met.transferBurst)
	r.Histogram("hier_miss_to_install_cycles", "cycles", "miss report to first bulk install (detail mode)", &h.met.missToInstall)
	r.GaugeFunc("hier_pending_surprise_installs", "entries", "queued installs not yet visible to the search pipeline",
		func() int64 { return int64(len(h.pendingSurprise)) })

	h.btb1.RegisterMetrics(r, "btb1_")
	h.btbp.RegisterMetrics(r, "btbp_")
	if h.btb2 != nil {
		h.btb2.RegisterMetrics(r, "btb2_")
	}
	h.pht.RegisterMetrics(r, "pht_")
	h.ctb.RegisterMetrics(r, "ctb_")
	h.fit.RegisterMetrics(r, "fit_")
	h.sbht.RegisterMetrics(r, "sbht_")
	if h.steer != nil {
		h.steer.RegisterMetrics(r, "steering_")
	}
	if h.trk != nil {
		h.trk.RegisterMetrics(r, "tracker_")
	}
	h.registerFaultMetrics(r)
}

// EnableDetailMetrics turns on the derived latency histograms (promotion
// age, miss-to-install), which need per-address timestamp maps. The maps
// are preallocated here so the predict/install hot path stays
// allocation-free; with detail mode off those paths never touch a map.
func (h *Hierarchy) EnableDetailMetrics() {
	h.detail = true
	if h.installedAt == nil {
		h.installedAt = make(map[zaddr.Addr]uint64, maxInstalledAt)
		h.missAt = make(map[uint64]uint64, maxMissAt)
	}
}

// noteInstall records when a BTBP install became visible (detail mode).
func (h *Hierarchy) noteInstall(a zaddr.Addr, now uint64) {
	if !h.detail || len(h.installedAt) >= maxInstalledAt {
		return
	}
	h.installedAt[a] = now
}

// notePromotion observes the BTBP residency of a just-promoted entry.
func (h *Hierarchy) notePromotion(a zaddr.Addr, now uint64) {
	if !h.detail {
		return
	}
	if t, ok := h.installedAt[a]; ok {
		h.met.promotionAge.Observe(int64(now - t))
		delete(h.installedAt, a)
	}
}

// noteMissReport records the first outstanding miss report for a block.
func (h *Hierarchy) noteMissReport(a zaddr.Addr, now uint64) {
	if !h.detail || len(h.missAt) >= maxMissAt {
		return
	}
	blk := zaddr.Block(a)
	if _, ok := h.missAt[blk]; !ok {
		h.missAt[blk] = now
	}
}

// noteTransferInstall observes miss-to-install latency when a bulk
// transfer first delivers an entry into a block with an outstanding miss.
func (h *Hierarchy) noteTransferInstall(a zaddr.Addr, now uint64) {
	if !h.detail {
		return
	}
	blk := zaddr.Block(a)
	if t, ok := h.missAt[blk]; ok {
		h.met.missToInstall.Observe(int64(now - t))
		delete(h.missAt, blk)
	}
}

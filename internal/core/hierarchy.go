package core

import (
	"bulkpreload/internal/bht"
	"bulkpreload/internal/btb"
	"bulkpreload/internal/ctb"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/fit"
	"bulkpreload/internal/history"
	"bulkpreload/internal/pht"
	"bulkpreload/internal/steering"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/tracker"
	"bulkpreload/internal/zaddr"
)

// Level identifies which first-level structure produced a prediction.
type Level uint8

// Prediction source levels.
const (
	LevelNone Level = iota
	LevelBTB1
	LevelBTBP
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelBTB1:
		return "BTB1"
	case LevelBTBP:
		return "BTBP"
	default:
		return "invalid"
	}
}

// Prediction is a dynamic prediction made by the first level for one
// branch.
type Prediction struct {
	Branch  zaddr.Addr
	Taken   bool
	Target  zaddr.Addr // meaningful when Taken
	Level   Level      // which structure hit
	MRU     bool       // BTB1 hit came from the MRU way (Table 1 timing)
	UsedPHT bool       // direction came from the PHT
	UsedCTB bool       // target came from the CTB
	// Entry is the snapshot of the hit entry, consumed by Resolve.
	Entry btb.Entry
}

type pendingInstall struct {
	at    uint64
	entry btb.Entry
}

// Hierarchy is the complete two-level bulk preload branch predictor.
type Hierarchy struct {
	cfg Config

	btb1 *btb.Table
	btbp *btb.Table
	btb2 *btb.Table // nil when disabled

	pht  *pht.Table
	ctb  *ctb.Table
	fit  *fit.Table
	sbht *bht.SurpriseBHT
	hist history.History

	steer *steering.Table   // nil when BTB2 or steering disabled
	trk   *tracker.Trackers // nil when BTB2 disabled

	// pendingSurprise holds surprise installs not yet visible to the
	// search pipeline, in nondecreasing visibility-cycle order.
	pendingSurprise []pendingInstall

	// chase state for MultiBlockTransfer: recently chased blocks (to
	// break cycles) and the cross-block reference tally of the current
	// drain batch.
	chased    [8]uint64
	chasedPos int
	crossRefs map[uint64]int

	// xfer is the snapshot of the BTB2 row a transfer read is
	// installing, taken before any install can write the BTB2.
	xfer   [btb.MaxWays]btb.Slot
	met    hierMetrics
	tracer Tracer // optional event sink (see events.go)

	// Detail-metric state (see EnableDetailMetrics): timestamp maps
	// backing the promotion-age and miss-to-install histograms. nil maps
	// and detail=false keep the hot path allocation- and map-free.
	detail      bool
	installedAt map[zaddr.Addr]uint64 // BTBP install cycle per branch
	missAt      map[uint64]uint64     // first outstanding miss report per block
}

// New builds a hierarchy whose predictor arrays take soft errors per
// faults (the zero value disables injection); an invalid config or fault
// config panics (configurations are code, not input).
func New(cfg Config, faults fault.Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := faults.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:       cfg,
		btb1:      btb.New(cfg.BTB1),
		btbp:      btb.New(cfg.BTBP),
		pht:       pht.New(pht.DefaultEntries),
		ctb:       ctb.New(ctb.DefaultEntries),
		fit:       fit.New(fit.DefaultEntries),
		sbht:      bht.NewSurpriseBHT(bht.DefaultSurpriseEntries),
		crossRefs: make(map[uint64]int),
	}
	h.met.setBounds()
	if cfg.BTB2Enabled {
		h.btb2 = btb.New(cfg.BTB2)
		var ord tracker.Orderer
		if cfg.UseSteering {
			h.steer = steering.NewDefault()
			ord = h.steer
		} else {
			ord = new(sequentialOrder)
		}
		// The tracker's search granularity follows the BTB2's row
		// coverage (32 bytes shipping; 64/128 in the future-work study).
		h.trk = tracker.New(cfg.Tracker, cfg.BTB2.LineBytes(), ord)
	}
	h.attachInjectors(faults)
	return h
}

// sequentialOrder is the Orderer used when steering is disabled:
// sequential from the entry sector. Order returns buf, overwritten by
// the next call.
type sequentialOrder struct {
	buf [zaddr.SectorsPerBlock]int
}

func (o *sequentialOrder) Order(entry zaddr.Addr) []int {
	start := zaddr.Sector(entry)
	for i := range o.buf {
		o.buf[i] = (start + i) % zaddr.SectorsPerBlock
	}
	return o.buf[:]
}

// Advance applies all state transitions due by cycle now: surprise
// installs whose write latency has elapsed, and BTB2 bulk-transfer row
// reads whose data has arrived at the BTBP. With nothing due it is a
// few compares: the search and predict paths call it every cycle.
func (h *Hierarchy) Advance(now uint64) {
	if len(h.pendingSurprise) > 0 && h.pendingSurprise[0].at <= now {
		h.installDue(now)
	}
	if h.trk == nil {
		return
	}
	if reads := h.trk.Drain(now); len(reads) > 0 {
		h.transfer(reads, now)
	}
	if len(h.crossRefs) > 0 {
		h.maybeChase(now)
	}
}

// installDue makes the surprise installs due by now visible. It
// compacts the queue in place rather than re-slicing from the front:
// [1:] slicing walks the backing array forward and forces append to
// reallocate periodically, which would put steady-state allocations on
// the install path.
func (h *Hierarchy) installDue(now uint64) {
	n := 0
	for n < len(h.pendingSurprise) && h.pendingSurprise[n].at <= now {
		h.installBTBP(btb.SlotOf(h.pendingSurprise[n].entry), now)
		n++
	}
	m := copy(h.pendingSurprise, h.pendingSurprise[n:])
	h.pendingSurprise = h.pendingSurprise[:m]
}

// transfer performs the drained BTB2 row reads: each row's hits are
// bulk-written into the BTBP and their BTB2 copies handled per policy.
// The hits move in lane form: their target and meta words are copied,
// and only the BTBP tag word is re-derived from the branch address.
func (h *Hierarchy) transfer(reads []tracker.Read, now uint64) {
	for _, rd := range reads {
		h.met.counters.transferReads.Inc()
		n := h.btb2.ReadLine(rd.Line, &h.xfer)
		h.met.transferBurst.Observe(int64(n))
		for _, s := range h.xfer[:n] {
			target := zaddr.Addr(s.Target)
			h.installBTBP(s, now)
			h.met.counters.transferredHits.Inc()
			h.noteTransferInstall(s.Addr, now)
			h.emit(now, EvTransferHit, s.Addr, target)
			// The slot names the BTB2 way it was read from; the update
			// scans the row only if that way no longer holds the branch
			// (with BypassBTBP, installBTBP can write a BTB1 victim into
			// this row between the read and the update).
			switch h.cfg.Policy {
			case SemiExclusive:
				// "When an entry is copied from BTB2 to BTBP, it is made
				// LRU in the BTB2."
				h.btb2.DemoteSlot(s)
			case TrueExclusive:
				h.btb2.InvalidateSlot(s)
			case Inclusive:
				h.btb2.TouchSlot(s)
			}
			if h.cfg.MultiBlockTransfer && target != 0 && !zaddr.SameBlock(s.Addr, target) {
				h.crossRefs[zaddr.Block(target)]++
			}
		}
	}
}

// maybeChase launches at most one secondary full search for the block
// most referenced by just-transferred branch targets — the bounded
// multi-block transfer of Section 6. Recently chased blocks are skipped
// to keep chains from cycling.
func (h *Hierarchy) maybeChase(now uint64) {
	// Leave headroom for demand-triggered searches.
	if h.trk.ActiveSearches(now) >= h.cfg.Tracker.Count-1 {
		return
	}
	best, bestN := uint64(0), 0
	// The key-ordered tie-break makes this argmax a pure function of the
	// map's contents: without it, equal reference counts let Go's
	// randomized iteration order pick the chased block, which diverged
	// checkpoint/resume runs.
	//zbp:allow determinism argmax with key-ordered tie-break is order-independent
	for blk, n := range h.crossRefs {
		if n > bestN || (n == bestN && bestN > 0 && blk < best) {
			best, bestN = blk, n
		}
	}
	clear(h.crossRefs)
	// Require at least two referencing branches: a lone cross-block jump
	// is weak evidence the target block's content is about to be needed.
	if bestN < 2 {
		return
	}
	for _, c := range h.chased {
		if c == best {
			return
		}
	}
	h.chased[h.chasedPos] = best
	h.chasedPos = (h.chasedPos + 1) % len(h.chased)
	h.met.counters.chainedSearches.Inc()
	entry := zaddr.Addr(best * zaddr.BlockBytes)
	h.emit(now, EvChase, entry, 0)
	// A chase is known-productive (real branch targets point there), so
	// it earns a full search: both validity bits are asserted.
	h.trk.OnBTB1Miss(entry, now)
	h.trk.OnICacheMiss(entry, now)
}

// installBTBP writes an entry into the BTBP (all first-level writes land
// there; the displaced BTBP victim is simply dropped — anything that
// entered the BTBP was already written to the BTB2 on its way in). If
// the branch is already resident anywhere in the first level, the write
// is dropped: the live copy carries fresher training than a (possibly
// stale) BTB2 transfer or a redundant surprise install, and duplicates
// would waste first-level capacity. It is the one first-level install
// path: transfers, surprise installs and preloads all come through it.
func (h *Hierarchy) installBTBP(s btb.Slot, now uint64) {
	if h.btb1.Contains(s.Addr) {
		return
	}
	if h.cfg.BypassBTBP {
		if h.btbp.Contains(s.Addr) {
			return
		}
		// Ablation: write straight into the BTB1, displacing live
		// content — the pollution the BTBP exists to absorb. The victim
		// still cascades to the BTB2 so capacity is not lost unfairly.
		if victim, evicted := h.btb1.InsertSlot(s); evicted {
			h.writeBTB2Victim(victim.Entry())
		}
		return
	}
	if h.btbp.Fill(s) {
		h.noteInstall(s.Addr, now)
	}
}

// PendingSurpriseFor reports whether a surprise install for branch a is
// queued but not yet visible (the "latency" class of Figure 4).
func (h *Hierarchy) PendingSurpriseFor(a zaddr.Addr) bool {
	for i := range h.pendingSurprise {
		if h.pendingSurprise[i].entry.Addr == a {
			return true
		}
	}
	return false
}

// SearchLine reports whether the first level holds any entry for the
// 32-byte line containing a at or after a's offset — one search of the
// parallel BTB1+BTBP read. Both rows are read (BTB1 first) even when
// the BTB1 alone answers, as the hardware reads them in parallel.
func (h *Hierarchy) SearchLine(a zaddr.Addr, now uint64) bool {
	h.Advance(now)
	n := h.btb1.CountFrom(a)
	n += h.btbp.CountFrom(a)
	return n > 0
}

// Predict performs the first-level lookup for the branch at a. On a BTBP
// hit the entry is moved into the BTB1 and the BTB1 victim cascades into
// the BTBP and BTB2 per the configured policy. ok is false when the
// branch misses the whole first level (a surprise branch).
func (h *Hierarchy) Predict(a zaddr.Addr, now uint64) (Prediction, bool) {
	h.Advance(now)
	var (
		e     btb.Entry
		level Level
		mru   bool
	)
	if e1, mru1, ok := h.btb1.Probe(a); ok {
		e = e1
		level = LevelBTB1
		mru = mru1
		h.met.counters.btb1Hits.Inc()
	} else if ep, ok := h.btbp.Find(a); ok {
		e = ep
		level = LevelBTBP
		h.met.counters.btbpHits.Inc()
		h.promote(ep, now)
	} else {
		return Prediction{}, false
	}

	p := Prediction{Branch: a, Level: level, MRU: mru, Entry: e}
	// Direction: bimodal unless the entry is marked multi-direction and
	// the PHT has a tagged match.
	p.Taken = e.Dir.Taken()
	if e.UsePHT {
		if taken, ok := h.pht.Lookup(&h.hist, a); ok {
			p.Taken = taken
			p.UsedPHT = true
			h.met.counters.phtOverrides.Inc()
		}
	}
	// Target: stored target unless marked multi-target with a CTB match.
	if p.Taken {
		p.Target = e.Target
		if e.UseCTB {
			if tgt, ok := h.ctb.Lookup(&h.hist, a); ok {
				p.Target = tgt
				p.UsedCTB = true
				h.met.counters.ctbOverrides.Inc()
			}
		}
	}
	h.met.counters.predictions.Inc()
	h.emit(now, EvPredict, p.Branch, p.Target)
	return p, true
}

// promote moves a BTBP entry into the BTB1 ("content is moved into the
// BTB1 upon making a branch prediction from the BTBP"); the displaced
// BTB1 victim is written into the BTBP and the BTB2.
func (h *Hierarchy) promote(e btb.Entry, now uint64) {
	h.btbp.Invalidate(e.Addr)
	victim, evicted := h.btb1.Insert(e)
	h.met.counters.promotions.Inc()
	h.notePromotion(e.Addr, now)
	h.emit(now, EvPromotion, e.Addr, 0)
	if h.cfg.Policy == TrueExclusive && h.btb2 != nil {
		// "exclusivity would be guaranteed by ... explicitly invalidating
		// the BTB2 hit" — the extra write traffic a truly exclusive
		// design pays (Section 3.3).
		h.btb2.Invalidate(e.Addr)
	}
	if !evicted {
		return
	}
	h.met.counters.btb1Victims.Inc()
	h.emit(now, EvVictim, victim.Addr, 0)
	h.btbp.Insert(victim)
	h.writeBTB2Victim(victim)
}

// writeBTB2Victim writes a BTB1 victim into the BTB2 per policy.
func (h *Hierarchy) writeBTB2Victim(victim btb.Entry) {
	if h.btb2 == nil {
		return
	}
	switch h.cfg.Policy {
	case SemiExclusive, TrueExclusive:
		// "the content that is evicted from the BTB1 is written into the
		// LRU column in the BTB2 and made MRU" — btb.Insert replaces the
		// LRU way and promotes.
		h.btb2.Insert(victim)
		h.met.counters.btb2Writes.Inc()
	case Inclusive:
		// The copy already exists (inclusive); refresh it with the
		// learned state, installing only if it was lost to aliasing.
		if !h.btb2.Update(victim) {
			h.btb2.Insert(victim)
		}
		h.met.counters.btb2Writes.Inc()
	}
}

// Resolve trains the hierarchy with the resolved outcome of branch in.
// p must be the Prediction previously returned for this branch, or nil
// for a surprise branch. now is the resolution (completion) cycle.
func (h *Hierarchy) Resolve(in trace.Inst, p *Prediction, now uint64) {
	if p != nil {
		h.resolvePredicted(in, p)
	} else {
		h.resolveSurprise(in, now)
	}
	// Recorded last: the training above must see the path history as it
	// was when the branch predicted.
	h.hist.RecordPrediction(in.Addr, in.Taken)
}

func (h *Hierarchy) resolvePredicted(in trace.Inst, p *Prediction) {
	e := p.Entry
	dirWrong := p.Taken != in.Taken
	e.Dir = e.Dir.Update(in.Taken)
	// A branch observed in both directions is a multi-direction branch:
	// gate it onto the PHT from now on.
	if dirWrong && in.Kind == trace.CondDirect {
		e.UsePHT = true
	}
	if e.UsePHT {
		h.pht.Update(&h.hist, in.Addr, in.Taken)
	}
	if in.Taken {
		if e.Target != 0 && e.Target != in.Target {
			// Multiple targets observed: gate onto the CTB.
			e.UseCTB = true
		}
		if e.UseCTB {
			h.ctb.Update(&h.hist, in.Addr, in.Target)
		}
		e.Target = in.Target
		h.fit.Train(in.Addr, in.Target)
	}
	e.Length = in.Length
	// Write back to wherever the entry now lives (BTB1 after promotion;
	// it can also still be mid-flight in the BTBP in exotic interleavings).
	if !h.btb1.Update(e) {
		h.btbp.Update(e)
	}
}

func (h *Hierarchy) resolveSurprise(in trace.Inst, now uint64) {
	h.sbht.Update(in.Addr, in.Taken)
	// Only ever-taken branches earn BTB entries; a never-taken branch
	// falls through correctly without one.
	if !in.Taken && !h.cfg.InstallNotTaken {
		return
	}
	e := btb.Entry{
		Addr:   in.Addr,
		Target: in.Target,
		Dir:    bht.Init(in.Taken),
		Length: in.Length,
	}
	if !in.Taken {
		e.Target = 0
	}
	h.met.counters.surpriseInstalls.Inc()
	h.emit(now, EvSurpriseInstall, in.Addr, e.Target)
	// The BTBP write becomes visible after the completion-time write
	// latency; re-executions inside the window are latency surprises.
	h.pendingSurprise = append(h.pendingSurprise, pendingInstall{
		at:    now + h.cfg.SurpriseInstallDelay,
		entry: e,
	})
	// "The BTB2 is written upon surprise installs into the branch
	// prediction hierarchy."
	if h.btb2 != nil {
		if h.cfg.Policy == TrueExclusive && h.btb1.Contains(in.Addr) {
			return // avoid the duplicate a truly exclusive design forbids
		}
		h.btb2.Insert(e)
		h.met.counters.btb2Writes.Inc()
	}
}

// PreloadBranch executes a branch preload instruction: software names an
// upcoming branch and its target, and the entry is written into the BTBP
// (Section 3.1 lists "branch preload instructions" among the BTBP write
// sources). The write shares the surprise-install port and latency.
func (h *Hierarchy) PreloadBranch(branch, target zaddr.Addr, length uint8, now uint64) {
	if h.btb1.Contains(branch) || h.btbp.Contains(branch) {
		return // already resident; the live copy is fresher
	}
	h.met.counters.preloadInstalls.Inc()
	h.emit(now, EvPreloadInstall, branch, target)
	h.pendingSurprise = append(h.pendingSurprise, pendingInstall{
		at: now + h.cfg.SurpriseInstallDelay,
		entry: btb.Entry{
			Addr:   branch,
			Target: target,
			Dir:    bht.WeakT, // software preloads ever-taken branches
			Length: length,
		},
	})
}

// FITLookup reports whether the FIT accelerates the re-index for a
// predicted-taken branch at a redirecting to next.
func (h *Hierarchy) FITLookup(a, next zaddr.Addr) bool {
	return h.fit.Lookup(a, next)
}

// ReportBTB1Miss feeds a detected first-level miss (Section 3.4) into the
// BTB2 search trackers. No-op without a BTB2.
func (h *Hierarchy) ReportBTB1Miss(a zaddr.Addr, now uint64) {
	if h.trk != nil {
		h.met.counters.missReports.Inc()
		h.noteMissReport(a, now)
		h.emit(now, EvMissReport, a, 0)
		h.trk.OnBTB1Miss(a, now)
	}
}

// ReportICacheMiss feeds an L1I miss into the BTB2 search trackers
// (Section 3.5's filter). No-op without a BTB2.
func (h *Hierarchy) ReportICacheMiss(a zaddr.Addr, now uint64) {
	if h.trk != nil {
		h.met.counters.icacheReports.Inc()
		h.noteMissReport(a, now)
		h.emit(now, EvICacheReport, a, 0)
		h.trk.OnICacheMiss(a, now)
	}
}

// ObserveComplete feeds a completed instruction into the steering
// ordering table (Section 3.7).
func (h *Hierarchy) ObserveComplete(a zaddr.Addr) {
	if h.steer != nil {
		h.steer.ObserveComplete(a)
	}
}

// ObserveCompleteBatch feeds a run of completed instructions into the
// steering ordering table in order — the batched twin of
// ObserveComplete, hoisting the nil check and method dispatch out of
// the engine's per-record loop. Equivalent to calling ObserveComplete
// once per record.
func (h *Hierarchy) ObserveCompleteBatch(ins []trace.Inst) {
	if h.steer == nil {
		return
	}
	for i := range ins {
		h.steer.ObserveComplete(ins[i].Addr)
	}
}

// Contains reports which levels currently hold branch a (diagnostics).
func (h *Hierarchy) Contains(a zaddr.Addr) (inBTB1, inBTBP, inBTB2 bool) {
	inBTB1 = h.btb1.Contains(a)
	inBTBP = h.btbp.Contains(a)
	if h.btb2 != nil {
		inBTB2 = h.btb2.Contains(a)
	}
	return
}

// Reset restores the hierarchy to power-on state.
func (h *Hierarchy) Reset() {
	h.btb1.Reset()
	h.btbp.Reset()
	if h.btb2 != nil {
		h.btb2.Reset()
	}
	h.pht.Reset()
	h.ctb.Reset()
	h.fit.Reset()
	h.sbht.Reset()
	if h.steer != nil {
		h.steer.Reset()
	}
	if h.trk != nil {
		h.trk.Reset()
	}
	for _, j := range h.FaultInjectors() {
		j.Reset()
	}
	h.hist.Reset()
	h.pendingSurprise = h.pendingSurprise[:0]
	h.chased = [8]uint64{}
	h.chasedPos = 0
	clear(h.crossRefs)
	h.met.counters = hierCounters{}
	h.met.promotionAge.Reset()
	h.met.transferBurst.Reset()
	h.met.missToInstall.Reset()
	if h.detail {
		clear(h.installedAt)
		clear(h.missAt)
	}
}

// SurpriseGuess returns the static direction guess for a surprise branch:
// always taken for unconditional kinds, otherwise the tagless surprise
// BHT combined with the opcode-derived static bias.
func (h *Hierarchy) SurpriseGuess(in trace.Inst) bool {
	if in.Kind.AlwaysTaken() {
		return true
	}
	return h.sbht.Guess(in.Addr, in.StaticTaken)
}

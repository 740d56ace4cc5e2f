// Package tracker implements the BTB2 search trackers of Section 3.6.
// Three trackers each own one 4 KB block of address space and remember
// two validity bits: a BTB1-miss indication and an instruction-cache-miss
// indication for that block.
//
//   - BTB1 miss + I-cache miss (fully active): launch a full search of
//     all 128 BTB2 rows of the block, ordered by the steering table.
//   - BTB1 miss only: launch a partial search of the 4 rows (128 bytes)
//     around the miss address; if the I-cache-miss bit is still invalid
//     when the partial search completes, the tracker is invalidated.
//   - I-cache miss only: no search.
//
// Timing: a search starts at the earliest 7 cycles after the miss is
// detected (b3 -> b10); the BTB2 search pipeline is 8 cycles deep and
// retires one row per cycle, so a full 4 KB transfer takes 128 + 8 = 136
// cycles. The BTB2 has a single search port, so concurrent trackers
// serialize row reads.
package tracker

import (
	"fmt"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// Orderer supplies the sector transfer order for a block entered at a
// given address. *steering.Table satisfies it; tests substitute fixed
// orders. The returned slice may be the orderer's scratch, valid until
// its next Order call.
type Orderer interface {
	Order(entryAddr zaddr.Addr) []int
}

// Search timing and partial-search coverage (Section 3.6), the same in
// every configuration.
const (
	StartDelay = 7 // cycles from miss detection to search start (b3 -> b10)
	PipeDepth  = 8 // BTB2 search pipeline depth in cycles
	// PartialBytes is the instruction span a partial search reads: 4
	// rows of the shipping 32-byte BTB2 rows, 2 of 64-byte rows, 1 of
	// 128-byte rows.
	PartialBytes = 128
)

// Config fixes the tracker array's studied parameters.
type Config struct {
	Count          int  // number of trackers (paper: 3)
	FilterByICache bool // gate full searches on I-cache misses (paper: true)
}

// DefaultConfig is the shipping zEC12 configuration.
var DefaultConfig = Config{
	Count:          3,
	FilterByICache: true,
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	if c.Count <= 0 {
		return fmt.Errorf("tracker: count %d must be positive", c.Count)
	}
	return nil
}

// Read is one scheduled BTB2 row read: search the BTB2 congruence class
// for Line and write any hits into the BTBP when Ready arrives.
type Read struct {
	Line  zaddr.Addr // 32-byte row base address
	Ready uint64     // cycle at which the row's hits reach the BTBP
}

type state uint8

const (
	idle          state = iota
	icacheOnly          // I-cache miss bit only; no search
	partialActive       // partial search scheduled/in flight
	fullActive          // full search scheduled/in flight
)

type slot struct {
	st        state
	block     uint64
	missAddr  zaddr.Addr // BTB1 miss address (search anchor)
	icache    bool       // I-cache miss validity bit
	lastReady uint64     // Ready of the final scheduled row
	allocTime uint64
	searched  [zaddr.RowsPerBlock / 64]uint64 // bitmap of rows already scheduled (sized for 32 B rows)
}

func (s *slot) markRow(row int)        { s.searched[row/64] |= 1 << uint(row%64) }
func (s *slot) rowMarked(row int) bool { return s.searched[row/64]&(1<<uint(row%64)) != 0 }

// Trackers is the tracker array plus the serialized BTB2 search port.
type Trackers struct {
	cfg Config
	// rowBytes is the instruction bytes one BTB2 row covers: 32 in the
	// paper, 64 or 128 in the future-work congruence-class study, which
	// shortens full-block transfers proportionally.
	rowBytes int
	ord      Orderer
	slots    []slot
	// queue[head:] holds the scheduled reads in Ready order (the single
	// search port guarantees monotone Ready assignment). queue[:head] is
	// what earlier Drains returned; drain reclaims it.
	queue []Read
	head  int
	// portFree is the next cycle at which the search port can accept a
	// row read.
	portFree uint64
	// due is a lower bound on the first cycle at which Drain or reap can
	// change anything: it never exceeds the queue head's Ready or any
	// active slot's lastReady. Drain recomputes it exactly and schedule
	// lowers it; below it, Drain is a no-op. It must never overshoot: a
	// partial search whose I-cache bit is set upgrades at the cycle reap
	// reaches it, so a late reap would launch the upgrade late.
	due uint64
	// rows backs the row list of a search launch. It and queue are
	// reused, so the transfer path allocates nothing.
	rows []int
	met  metrics
}

// metrics is the tracker array's registry-backed counter set.
type metrics struct {
	btb1Misses   obs.Counter
	icacheMisses obs.Counter
	partial      obs.Counter
	full         obs.Counter
	upgrades     obs.Counter
	invalidated  obs.Counter
	dropped      obs.Counter
	rowsRead     obs.Counter
}

// New builds a tracker array searching BTB2 rows of rowBytes
// instruction bytes, the BTB2's btb.Config.LineBytes. An invalid config
// or row width panics.
func New(cfg Config, rowBytes int, ord Orderer) *Trackers {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	switch rowBytes {
	case 32, 64, 128:
	default:
		panic(fmt.Sprintf("tracker: row bytes %d not one of 32/64/128", rowBytes))
	}
	if ord == nil {
		panic("tracker: nil Orderer")
	}
	return &Trackers{
		cfg:      cfg,
		rowBytes: rowBytes,
		ord:      ord,
		slots:    make([]slot, cfg.Count),
		rows:     make([]int, 0, zaddr.BlockBytes/rowBytes),
	}
}

// RegisterMetrics enumerates the tracker counters (plus a pending-reads
// gauge) into r under the given prefix, e.g. "tracker_".
func (t *Trackers) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"btb1_misses_total", "events", "BTB1 miss reports delivered", &t.met.btb1Misses)
	r.Counter(prefix+"icache_misses_total", "events", "I-cache miss reports delivered", &t.met.icacheMisses)
	r.Counter(prefix+"partial_searches_total", "searches", "partial searches launched", &t.met.partial)
	r.Counter(prefix+"full_searches_total", "searches", "full searches launched (incl. upgrades)", &t.met.full)
	r.Counter(prefix+"upgrades_total", "searches", "partial searches upgraded to full", &t.met.upgrades)
	r.Counter(prefix+"invalidated_total", "searches", "partial searches whose tracker died un-upgraded", &t.met.invalidated)
	r.Counter(prefix+"dropped_total", "events", "miss reports dropped with all trackers busy", &t.met.dropped)
	r.Counter(prefix+"rows_read_total", "rows", "BTB2 row reads scheduled", &t.met.rowsRead)
	r.GaugeFunc(prefix+"pending_reads", "rows", "scheduled but undrained row reads",
		func() int64 { return int64(t.PendingReads()) })
}

// ActiveSearches returns the number of trackers with a search in flight.
func (t *Trackers) ActiveSearches(now uint64) int {
	n := 0
	for i := range t.slots {
		s := &t.slots[i]
		if (s.st == partialActive || s.st == fullActive) && s.lastReady > now {
			n++
		}
	}
	return n
}

// reap frees trackers whose searches have fully completed by now. A
// partial search completing without an I-cache miss invalidates its
// tracker; with one, the tracker upgrades (handled in OnICacheMiss, but a
// late reap here catches the already-upgraded full searches too).
func (t *Trackers) reap(now uint64) {
	for i := range t.slots {
		s := &t.slots[i]
		switch s.st {
		case partialActive:
			if now >= s.lastReady {
				// Partial done; I-cache bit still invalid => invalidate.
				if !s.icache {
					t.met.invalidated.Inc()
					*s = slot{}
				} else {
					// Upgrade raced with completion: finish as full.
					t.upgrade(i, now)
				}
			}
		case fullActive:
			if now >= s.lastReady {
				*s = slot{}
			}
		}
	}
}

func (t *Trackers) findSlot(block uint64) int {
	for i := range t.slots {
		if t.slots[i].st != idle && t.slots[i].block == block {
			return i
		}
	}
	return -1
}

// allocate returns a slot index for a new tracker, preferring idle slots,
// then the oldest I-cache-only tracker. -1 means every slot is running a
// search and the event must be dropped.
func (t *Trackers) allocate() int {
	for i := range t.slots {
		if t.slots[i].st == idle {
			return i
		}
	}
	best := -1
	for i := range t.slots {
		if t.slots[i].st == icacheOnly {
			if best < 0 || t.slots[i].allocTime < t.slots[best].allocTime {
				best = i
			}
		}
	}
	return best
}

// OnBTB1Miss reports a perceived first-level miss detected at cycle now
// with starting search address addr (Section 3.4's definition).
func (t *Trackers) OnBTB1Miss(addr zaddr.Addr, now uint64) {
	t.met.btb1Misses.Inc()
	t.reap(now)
	block := zaddr.Block(addr)
	if i := t.findSlot(block); i >= 0 {
		s := &t.slots[i]
		switch s.st {
		case icacheOnly:
			// Fully active now: full search.
			s.missAddr = addr
			t.launchFull(i, now)
		case partialActive, fullActive:
			// Already searching this block; nothing further.
		}
		return
	}
	i := t.allocate()
	if i < 0 {
		t.met.dropped.Inc()
		return
	}
	t.slots[i] = slot{block: block, missAddr: addr, allocTime: now}
	if !t.cfg.FilterByICache {
		// Ablation mode: every BTB1 miss earns a full search.
		t.launchFull(i, now)
		return
	}
	t.launchPartial(i, now)
}

// OnICacheMiss reports a first-level instruction cache miss at address
// addr at cycle now.
func (t *Trackers) OnICacheMiss(addr zaddr.Addr, now uint64) {
	t.met.icacheMisses.Inc()
	t.reap(now)
	block := zaddr.Block(addr)
	if i := t.findSlot(block); i >= 0 {
		s := &t.slots[i]
		if s.icache {
			return
		}
		s.icache = true
		if s.st == partialActive {
			// BTB1 miss + I-cache miss: upgrade to a full search.
			t.upgrade(i, now)
		}
		return
	}
	i := t.allocate()
	if i < 0 {
		t.met.dropped.Inc()
		return
	}
	t.slots[i] = slot{st: icacheOnly, block: block, icache: true, allocTime: now}
}

// launchPartial schedules the partial search around the miss address:
// the BTB2 rows covering PartialBytes from the start of its sector.
func (t *Trackers) launchPartial(i int, now uint64) {
	s := &t.slots[i]
	s.st = partialActive
	t.met.partial.Inc()
	sectorBase := zaddr.Align(s.missAddr, zaddr.SectorBytes)
	startRow := int(zaddr.BlockOffset(sectorBase)) / t.rowBytes
	t.rows = t.rows[:0]
	for r := 0; r < PartialBytes/t.rowBytes; r++ {
		t.rows = append(t.rows, startRow+r)
	}
	t.schedule(i, t.rows, now)
}

// launchFull schedules a full-block search ordered by the steering table.
func (t *Trackers) launchFull(i int, now uint64) {
	s := &t.slots[i]
	s.st = fullActive
	t.met.full.Inc()
	t.schedule(i, t.fullRowOrder(s), now)
}

// upgrade extends a partial search to the full block, skipping rows the
// partial pass already covered.
func (t *Trackers) upgrade(i int, now uint64) {
	s := &t.slots[i]
	s.st = fullActive
	t.met.upgrades.Inc()
	t.met.full.Inc()
	t.schedule(i, t.fullRowOrder(s), now)
}

// fullRowOrder expands the steering sector order into row indices,
// anchored at the tracker's miss address. Wider BTB2 rows cover several
// 128-byte sectors each; duplicate rows are filtered by the schedule
// bitmap. The result is t.rows, valid until the next launch.
func (t *Trackers) fullRowOrder(s *slot) []int {
	rb := t.rowBytes
	sectors := t.ord.Order(s.missAddr)
	t.rows = t.rows[:0]
	if rb <= zaddr.SectorBytes {
		perSector := zaddr.SectorBytes / rb
		for _, sec := range sectors {
			for r := 0; r < perSector; r++ {
				t.rows = append(t.rows, sec*perSector+r)
			}
		}
		return t.rows
	}
	// Row wider than a sector: one row per covered sector, first
	// occurrence wins (the bitmap drops repeats).
	for _, sec := range sectors {
		t.rows = append(t.rows, sec*zaddr.SectorBytes/rb)
	}
	return t.rows
}

// schedule pushes row reads through the single search port. Rows already
// scheduled for this tracker are skipped (upgrade path). It lowers due
// to the first read's Ready and to the slot's lastReady, so Drain
// cannot skip the new reads or the slot's reap.
func (t *Trackers) schedule(i int, rows []int, now uint64) {
	s := &t.slots[i]
	start := now + StartDelay
	if t.portFree > start {
		start = t.portFree
	}
	blockBase := zaddr.Addr(s.block * zaddr.BlockBytes)
	rb := t.rowBytes
	cycle := start
	for _, row := range rows {
		if s.rowMarked(row) {
			continue
		}
		s.markRow(row)
		ready := cycle + PipeDepth
		t.queue = append(t.queue, Read{
			Line:  blockBase + zaddr.Addr(row*rb),
			Ready: ready,
		})
		t.met.rowsRead.Inc()
		if ready > s.lastReady {
			s.lastReady = ready
		}
		cycle++
	}
	t.portFree = cycle
	t.due = min(t.due, start+PipeDepth, s.lastReady)
}

// Drain returns (and removes) all scheduled reads whose Ready cycle is at
// or before now, in Ready order, and frees the trackers whose searches
// have completed. The caller performs the BTB2 lookups and BTBP
// installs for each read. The result is a window of the tracker's
// queue, valid until the next Drain (reads scheduled meanwhile do not
// disturb it). Before the due cycle nothing can be ready, and Drain
// returns nil without scanning.
func (t *Trackers) Drain(now uint64) []Read {
	if now < t.due {
		return nil
	}
	return t.drain(now)
}

// drain is Drain at or past the due cycle: it removes the ready reads,
// reaps, and recomputes due from the queue head and the active slots.
func (t *Trackers) drain(now uint64) []Read {
	// The previous result is dead now. Reclaim its prefix once it is at
	// least as long as the pending reads, so each read moves at most
	// once on average.
	if t.head >= len(t.queue)-t.head {
		t.queue = t.queue[:copy(t.queue, t.queue[t.head:])]
		t.head = 0
	}
	n := t.head
	for n < len(t.queue) && t.queue[n].Ready <= now {
		n++
	}
	drained := t.queue[t.head:n]
	t.head = n
	t.reap(now)
	t.due = ^uint64(0)
	if t.head < len(t.queue) {
		t.due = t.queue[t.head].Ready
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.st == partialActive || s.st == fullActive {
			t.due = min(t.due, s.lastReady)
		}
	}
	if len(drained) == 0 {
		return nil
	}
	return drained
}

// PendingReads returns the number of scheduled but undrained row reads.
func (t *Trackers) PendingReads() int { return len(t.queue) - t.head }

// Reset clears all trackers and the port state.
func (t *Trackers) Reset() {
	for i := range t.slots {
		t.slots[i] = slot{}
	}
	t.queue = t.queue[:0]
	t.head = 0
	t.portFree = 0
	t.due = 0
	t.met = metrics{}
}

// Package cache models the instruction-cache levels relevant to the
// paper's study: the finite 64 KB 4-way L1 instruction cache (whose
// misses both gate BTB2 searches and cost fetch latency) and an optional
// finite 1 MB 8-way L2 instruction cache used by the "hardware mode" of
// Figure 3 (the paper's simulations treated the second level and beyond
// as infinite).
//
// The branch predictor runs ahead of instruction fetch, so predicted
// targets can be prefetched into the L1I before decode demands them; the
// model tracks lines installed by prefetch so the engine can credit
// hidden miss latency, which is one of the two mechanisms behind the
// BTB2's gain (Section 5.1).
package cache

import (
	"fmt"

	"bulkpreload/internal/obs"
	"bulkpreload/internal/zaddr"
)

// Config fixes a cache's geometry.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
}

// zEC12 instruction-side cache geometries (Table 5).
var (
	// L1IConfig is the 64 KB 4-way first-level instruction cache with
	// 256-byte lines.
	L1IConfig = Config{Name: "L1I", SizeBytes: 64 * 1024, LineBytes: 256, Ways: 4}
	// L2IConfig is the 1 MB 8-way second-level instruction cache.
	L2IConfig = Config{Name: "L2I", SizeBytes: 1024 * 1024, LineBytes: 256, Ways: 8}
)

// Validate checks geometry consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of congruence classes.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// metrics is the cache's registry-backed counter set.
type metrics struct {
	accesses       obs.Counter
	misses         obs.Counter
	prefetches     obs.Counter
	prefetchedHits obs.Counter
}

type line struct {
	valid      bool
	tag        uint64
	prefetched bool // installed by prefetch; cleared on first demand hit
}

// Cache is a set-associative instruction cache with true LRU.
type Cache struct {
	cfg   Config
	lines []line  // sets x ways
	order []uint8 // recency order per set, rank 0 = MRU
	sets  int
	shift uint // log2(LineBytes)
	mask  uint64
	met   metrics
}

// New builds an empty cache; invalid geometry panics.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		lines: make([]line, sets*cfg.Ways),
		order: make([]uint8, sets*cfg.Ways),
		sets:  sets,
		mask:  uint64(sets - 1),
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.shift++
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			c.order[s*cfg.Ways+w] = uint8(w)
		}
	}
	return c
}

// RegisterMetrics enumerates the cache's counters (plus a computed
// occupancy gauge) into r under the given prefix, e.g. "l1i_".
func (c *Cache) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"accesses_total", "lines", "demand accesses", &c.met.accesses)
	r.Counter(prefix+"misses_total", "lines", "demand misses", &c.met.misses)
	r.Counter(prefix+"prefetches_total", "lines", "prefetch fills issued", &c.met.prefetches)
	r.Counter(prefix+"prefetched_hits_total", "lines", "demand hits served from prefetched lines", &c.met.prefetchedHits)
	r.GaugeFunc(prefix+"occupancy_lines", "lines", "resident cache lines",
		func() int64 { return int64(c.CountValid()) })
}

func (c *Cache) setAndTag(a zaddr.Addr) (int, uint64) {
	lineNo := zaddr.ChunkIndex(a, uint64(c.cfg.LineBytes))
	return int(lineNo & c.mask), lineNo >> uint(log2(c.sets))
}

// Access performs a demand access for the line containing a, filling it
// on a miss. It returns hit status and whether a hit was served from a
// prefetched line (first demand touch only).
func (c *Cache) Access(a zaddr.Addr) (hit, prefetched bool) {
	c.met.accesses.Inc()
	set, tag := c.setAndTag(a)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			pf := ln.prefetched
			if pf {
				c.met.prefetchedHits.Inc()
				ln.prefetched = false
			}
			c.promote(set, w)
			return true, pf
		}
	}
	c.met.misses.Inc()
	c.fill(set, tag, false)
	return false, false
}

// Probe reports whether the line containing a is resident, without
// changing any state.
func (c *Cache) Probe(a zaddr.Addr) bool {
	set, tag := c.setAndTag(a)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Prefetch installs the line containing a if absent, marking it
// prefetched. Resident lines are left untouched (no recency change — a
// prefetch must not protect a line the demand stream has abandoned).
func (c *Cache) Prefetch(a zaddr.Addr) {
	set, tag := c.setAndTag(a)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			return
		}
	}
	c.met.prefetches.Inc()
	c.fill(set, tag, true)
}

// fill installs tag into set, evicting LRU if needed, and makes it MRU.
func (c *Cache) fill(set int, tag uint64, prefetched bool) {
	base := set * c.cfg.Ways
	way := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.lines[base+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = int(c.order[base+c.cfg.Ways-1])
	}
	c.lines[base+way] = line{valid: true, tag: tag, prefetched: prefetched}
	c.promote(set, way)
}

func (c *Cache) promote(set, w int) {
	base := set * c.cfg.Ways
	ord := c.order[base : base+c.cfg.Ways]
	pos := 0
	for ; pos < len(ord); pos++ {
		if int(ord[pos]) == w {
			break
		}
	}
	copy(ord[1:pos+1], ord[0:pos])
	ord[0] = uint8(w)
}

// CountValid returns the number of resident lines.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// Reset empties the cache.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.cfg.Ways; w++ {
			c.order[s*c.cfg.Ways+w] = uint8(w)
		}
	}
	c.met = metrics{}
}

func log2(n int) int {
	w := 0
	for n > 1 {
		n >>= 1
		w++
	}
	return w
}

package btb

import "bulkpreload/internal/zaddr"

// CheckLRUInvariant exposes the internal recency-order invariant check to
// tests in this package and keeps it out of the public API.
func (t *Table) CheckLRUInvariant() error { return t.checkLRUInvariant() }

// Entries returns the branch addresses of all valid entries, in storage
// order.
func (t *Table) Entries() []zaddr.Addr {
	out := make([]zaddr.Addr, 0, t.CountValid())
	var e Entry
	for i := range t.tags {
		if t.tags[i]&1 != 0 {
			t.unpackEntry(i/t.cfg.Ways, i%t.cfg.Ways, &e)
			out = append(out, e.Addr)
		}
	}
	return out
}

package tracker

import "bulkpreload/internal/zaddr"

// ForgetDue drops the Drain skip bound, so the next Drain scans the
// queue and reaps as if no bound were kept.
func (t *Trackers) ForgetDue() { t.due = 0 }

// RaceICacheMiss sets the I-cache bit of addr's in-flight partial
// search without upgrading it: the state an I-cache miss landing as the
// partial search completes leaves, which reap upgrades to a full search
// at the cycle it reaches the slot.
func (t *Trackers) RaceICacheMiss(addr zaddr.Addr) {
	if i := t.findSlot(zaddr.Block(addr)); i >= 0 && t.slots[i].st == partialActive {
		t.slots[i].icache = true
	}
}

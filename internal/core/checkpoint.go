package core

import (
	"fmt"

	"bulkpreload/internal/bht"
	"bulkpreload/internal/btb"
	"bulkpreload/internal/ctb"
	"bulkpreload/internal/history"
	"bulkpreload/internal/pht"
)

// PendingInstall is the serializable mirror of one queued surprise
// install (visibility cycle + the entry awaiting its BTBP write).
type PendingInstall struct {
	At    uint64
	Entry btb.Entry
}

// State is a serializable copy of the hierarchy's architectural state:
// the contents of every predictor array plus the global path history and
// the queued surprise installs. Transient microarchitectural machinery —
// search trackers, steering, the FIT, miss-detector state, activity
// counters, and the fault-injector schedules — is deliberately excluded:
// a hierarchy restored from State behaves like one whose transfer engine
// was just flushed, which costs at most a few warm-up searches. See
// docs/ROBUSTNESS.md for the fidelity discussion.
type State struct {
	BTB1 btb.State
	BTBP btb.State
	BTB2 *btb.State // nil when the BTB2 is disabled

	PHT  pht.State
	CTB  ctb.State
	SBHT bht.State

	History history.State
	Pending []PendingInstall
}

// State captures the hierarchy's architectural state.
func (h *Hierarchy) State() State {
	s := State{
		BTB1:    h.btb1.State(),
		BTBP:    h.btbp.State(),
		PHT:     h.pht.State(),
		CTB:     h.ctb.State(),
		SBHT:    h.sbht.State(),
		History: h.hist.State(),
	}
	if h.btb2 != nil {
		st := h.btb2.State()
		s.BTB2 = &st
	}
	s.Pending = make([]PendingInstall, len(h.pendingSurprise))
	for i, p := range h.pendingSurprise {
		s.Pending[i] = PendingInstall{At: p.at, Entry: p.entry}
	}
	return s
}

// RestoreState overwrites the hierarchy's architectural state with s.
// The hierarchy must have been built from the same configuration the
// state was captured under; geometry mismatches are reported as errors.
// Transient machinery (trackers, steering, FIT, counters) is reset cold.
func (h *Hierarchy) RestoreState(s State) error {
	if err := h.btb1.RestoreState(s.BTB1); err != nil {
		return err
	}
	if err := h.btbp.RestoreState(s.BTBP); err != nil {
		return err
	}
	if (s.BTB2 != nil) != (h.btb2 != nil) {
		return fmt.Errorf("core: checkpoint BTB2 presence (%t) does not match configuration (%t)",
			s.BTB2 != nil, h.btb2 != nil)
	}
	if s.BTB2 != nil {
		if err := h.btb2.RestoreState(*s.BTB2); err != nil {
			return err
		}
	}
	if err := h.pht.RestoreState(s.PHT); err != nil {
		return err
	}
	if err := h.ctb.RestoreState(s.CTB); err != nil {
		return err
	}
	if err := h.sbht.RestoreState(s.SBHT); err != nil {
		return err
	}
	h.hist.RestoreState(s.History)
	h.pendingSurprise = h.pendingSurprise[:0]
	for _, p := range s.Pending {
		h.pendingSurprise = append(h.pendingSurprise, pendingInstall{at: p.At, entry: p.Entry})
	}
	return nil
}

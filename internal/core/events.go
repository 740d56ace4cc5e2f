package core

import (
	"fmt"

	"bulkpreload/internal/zaddr"
)

// EventKind labels one hierarchy event for tracing.
type EventKind uint8

// Hierarchy event kinds, in rough lifecycle order.
const (
	// EvPredict: a dynamic prediction was made (Addr = branch, Aux =
	// target when taken).
	EvPredict EventKind = iota
	// EvPromotion: a BTBP entry moved into the BTB1 (Addr = branch).
	EvPromotion
	// EvVictim: a BTB1 victim cascaded to the BTBP/BTB2 (Addr = victim).
	EvVictim
	// EvSurpriseInstall: a surprise branch queued a BTBP install (Addr =
	// branch, Aux = target).
	EvSurpriseInstall
	// EvPreloadInstall: a branch preload instruction queued an install.
	EvPreloadInstall
	// EvMissReport: a BTB1 miss was reported to the trackers (Addr =
	// anchor address).
	EvMissReport
	// EvICacheReport: an L1I miss was reported to the trackers.
	EvICacheReport
	// EvTransferHit: a BTB2 entry was bulk-moved into the BTBP (Addr =
	// branch, Aux = target).
	EvTransferHit
	// EvChase: a multi-block secondary search launched (Addr = block
	// base).
	EvChase

	numEventKinds
)

// NumEventKinds is the number of distinct event kinds.
const NumEventKinds = int(numEventKinds)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvPredict:
		return "predict"
	case EvPromotion:
		return "promote"
	case EvVictim:
		return "victim"
	case EvSurpriseInstall:
		return "surprise-install"
	case EvPreloadInstall:
		return "preload-install"
	case EvMissReport:
		return "btb1-miss"
	case EvICacheReport:
		return "icache-miss"
	case EvTransferHit:
		return "transfer-hit"
	case EvChase:
		return "chase"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// MetricName returns the name of the registry counter that counts this
// event kind (see Hierarchy.RegisterMetrics): every emitted event
// increments its counter exactly once, so exported trace files can be
// reconciled against the final registry snapshot kind by kind. Unknown
// kinds return "".
func (k EventKind) MetricName() string {
	switch k {
	case EvPredict:
		return "hier_predictions_total"
	case EvPromotion:
		return "hier_promotions_total"
	case EvVictim:
		return "hier_btb1_victims_total"
	case EvSurpriseInstall:
		return "hier_surprise_installs_total"
	case EvPreloadInstall:
		return "hier_preload_installs_total"
	case EvMissReport:
		return "hier_miss_reports_total"
	case EvICacheReport:
		return "hier_icache_reports_total"
	case EvTransferHit:
		return "hier_transferred_hits_total"
	case EvChase:
		return "hier_chained_searches_total"
	default:
		return ""
	}
}

// Event is one traced hierarchy action.
type Event struct {
	Cycle uint64
	Kind  EventKind
	Addr  zaddr.Addr
	Aux   zaddr.Addr
}

// String renders the event for logs.
func (e Event) String() string {
	if e.Aux != 0 {
		return fmt.Sprintf("[%8d] %-16s %#x -> %#x", e.Cycle, e.Kind, uint64(e.Addr), uint64(e.Aux))
	}
	return fmt.Sprintf("[%8d] %-16s %#x", e.Cycle, e.Kind, uint64(e.Addr))
}

// Tracer receives hierarchy events. Implementations must be fast; the
// hierarchy calls them inline.
type Tracer interface {
	Event(Event)
}

// SetTracer installs (or, with nil, removes) an event tracer.
func (h *Hierarchy) SetTracer(t Tracer) { h.tracer = t }

// emit sends an event to the tracer if one is installed.
func (h *Hierarchy) emit(cycle uint64, kind EventKind, addr, aux zaddr.Addr) {
	if h.tracer != nil {
		h.tracer.Event(Event{Cycle: cycle, Kind: kind, Addr: addr, Aux: aux})
	}
}

// CollectTracer is a Tracer that buffers events up to a cap — the
// simplest way to inspect hierarchy behaviour in tests and tools. By
// default the first Max events are kept and later ones dropped; with
// Ring set, the buffer instead keeps the *last* Max events, so a
// timeline taken at the end of a long run shows the steady state rather
// than the warm-up.
type CollectTracer struct {
	Max    int  // 0 = unlimited
	Ring   bool // keep the last Max events instead of the first
	Events []Event

	head    int  // ring mode: index of the oldest event
	wrapped bool // ring mode: buffer has overwritten at least once
}

// Event implements Tracer.
func (c *CollectTracer) Event(e Event) {
	if c.Max > 0 && len(c.Events) >= c.Max {
		if !c.Ring {
			return
		}
		c.Events[c.head] = e
		c.head = (c.head + 1) % c.Max
		c.wrapped = true
		return
	}
	c.Events = append(c.Events, e)
}

// Ordered returns the collected events in arrival order. In ring mode
// after a wrap, Events itself is rotated; Ordered straightens it out
// (allocating a copy). Otherwise it returns Events as-is.
func (c *CollectTracer) Ordered() []Event {
	if !c.wrapped {
		return c.Events
	}
	out := make([]Event, 0, len(c.Events))
	out = append(out, c.Events[c.head:]...)
	out = append(out, c.Events[:c.head]...)
	return out
}

// TeeTracer fans each event out to every member tracer, letting a run
// stream a JSONL export and feed a timeline buffer at the same time.
type TeeTracer []Tracer

// Event implements Tracer.
func (t TeeTracer) Event(e Event) {
	for _, s := range t {
		s.Event(e)
	}
}

// Package span is the hierarchical tracing layer of the observability
// stack: where internal/obs counts *what* happened, span records *when*
// and *under whom*. A sharded study renders as a tree —
//
//	study → shard worker → unit → engine phase → batch → refill
//
// — with scheduler steal decisions as instant events, exportable to the
// Chrome trace_event timeline (internal/obs/export.WriteChromeSpans).
//
// The design mirrors the obs registry's ownership model exactly:
//
//  1. Disabled tracing must cost nothing. Every Recorder and Span
//     method is a nil-receiver no-op, so the hot path pays one
//     predictable branch and zero allocations when no trace is
//     attached. The disabled path is pinned at 0 allocs/op by
//     span_test.go.
//  2. Recorders are goroutine-local: a Recorder buffers events for the
//     one goroutine that owns it, with plain (non-atomic) appends and
//     sequence counters. Events cross goroutine boundaries only through
//     Trace.Adopt after the owning goroutine has finished (the same
//     result-slot discipline the scheduler uses for obs snapshots).
//  3. Span identity is deterministic: IDs are derived from the worker
//     number and a per-recorder sequence, never from global state, so
//     two runs of the same schedule produce the same span tree shape.
//
// Wall-clock reads live here — and only here — because spans measure
// host execution time, never simulated time; the span layer is
// deliberately outside the determinism analyzer's critical set and no
// span data ever reaches engine.Result or a metrics registry (the
// serial-oracle differential gate compares those bit-for-bit).
package span

import (
	"sort"
	"sync"
	"time"
)

// Kind classifies a span or instant event within the pipeline tree.
type Kind uint8

// Span kinds, from the root of the tree down.
const (
	KindStudy  Kind = iota // one RunUnits invocation
	KindWorker             // one shard worker's lifetime
	KindUnit               // one simulation unit on its worker
	KindPhase              // engine phase: warmup or steady
	KindBatch              // one StepBatch call
	KindRefill             // one FileSource batch refill (disk read + decode)
	KindSteal              // instant: a successful steal (loot count, victim)
	numKinds
)

// String implements fmt.Stringer; the names double as Chrome trace
// categories.
func (k Kind) String() string {
	switch k {
	case KindStudy:
		return "study"
	case KindWorker:
		return "worker"
	case KindUnit:
		return "unit"
	case KindPhase:
		return "phase"
	case KindBatch:
		return "batch"
	case KindRefill:
		return "refill"
	case KindSteal:
		return "steal"
	default:
		return "span"
	}
}

// ArgNames returns the display labels of a kind's two event arguments;
// empty names mean the argument is unused and exporters omit it.
func (k Kind) ArgNames() (string, string) {
	switch k {
	case KindStudy:
		return "units", "workers"
	case KindWorker:
		return "units_run", "units_stolen"
	case KindUnit:
		return "instructions", ""
	case KindPhase:
		return "instructions", ""
	case KindBatch:
		return "bulk_records", "slow_records"
	case KindRefill:
		return "records", ""
	case KindSteal:
		return "units", "victim"
	default:
		return "", ""
	}
}

// ID identifies one span within a Trace. The zero ID means "no parent"
// (a root span). IDs pack the recorder's worker number in the high bits
// and a per-recorder sequence in the low bits, so they are unique
// across workers without any shared state.
type ID uint64

// Event is one completed span or instant, plain data safe to hand
// across goroutines once adopted. Times are nanoseconds since the
// owning Trace's epoch.
type Event struct {
	ID      ID     `json:"id"`
	Parent  ID     `json:"parent,omitempty"`
	Kind    Kind   `json:"-"`
	Name    string `json:"name"`
	Worker  int    `json:"worker"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns"`
	Instant bool   `json:"instant,omitempty"`
	Arg1    int64  `json:"arg1"`
	Arg2    int64  `json:"arg2"`
}

// Trace collects the spans of one study. The mutex guards only Adopt
// and Events — recorders buffer locally and adopt in bulk, so the hot
// path never touches it. A nil *Trace is valid and hands out nil
// Recorders, which disables tracing end to end.
type Trace struct {
	epoch time.Time
	mu    sync.Mutex
	// evs holds adopted events.
	//
	//zbp:guardedby mu
	evs []Event
}

// NewTrace returns an empty trace whose epoch is now. All span times
// are reported relative to this instant.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now()}
}

// NewRecorder hands out a goroutine-local recorder labelled with a
// worker number (0 is conventionally the scheduler/driver, shard
// workers are 1-based). On a nil Trace it returns a nil Recorder, whose
// every method is a no-op — the disabled path.
func (t *Trace) NewRecorder(worker int) *Recorder {
	if t == nil {
		return nil
	}
	return &Recorder{t: t, worker: worker}
}

// Adopt moves r's buffered events into the trace. Call it only after
// r's owning goroutine has finished (or from that goroutine); the
// scheduler adopts worker recorders after wg.Wait, exactly like worker
// obs snapshots. Adopting a nil recorder is a no-op.
func (t *Trace) Adopt(r *Recorder) {
	if t == nil || r == nil || len(r.evs) == 0 {
		return
	}
	t.mu.Lock()
	t.evs = append(t.evs, r.evs...)
	t.mu.Unlock()
	r.evs = nil
}

// Len returns the number of adopted events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.evs)
	t.mu.Unlock()
	return n
}

// Events returns every adopted event ordered by start time (ID breaks
// ties), as a copy safe to retain.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.evs))
	copy(out, t.evs)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// workerShift positions the worker number above any plausible
// per-recorder sequence (2^40 events per worker).
const workerShift = 40

// Recorder buffers span events for one goroutine. The zero *Recorder
// (nil) is the disabled recorder: every method no-ops. Recorders are
// not safe for concurrent use — one per goroutine, like obs.Registry.
type Recorder struct {
	t      *Trace
	worker int
	seq    uint64
	evs    []Event
}

// Enabled reports whether the recorder actually records. Use it to
// skip argument computation that is only needed for tracing.
func (r *Recorder) Enabled() bool { return r != nil }

// now returns nanoseconds since the trace epoch (monotonic).
func (r *Recorder) now() int64 {
	return int64(time.Since(r.t.epoch))
}

// nextID mints the next deterministic span ID for this recorder.
func (r *Recorder) nextID() ID {
	r.seq++
	return ID(uint64(r.worker+1)<<workerShift | r.seq)
}

// Start opens a span of the given kind under parent (0 for a root) and
// returns its handle. On a nil recorder it returns the zero Span, whose
// End/EndArgs are no-ops. Nothing is buffered until the span ends.
func (r *Recorder) Start(kind Kind, name string, parent ID) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, id: r.nextID(), parent: parent, kind: kind, name: name, start: r.now()}
}

// Instant records a zero-duration event (a steal decision, a marker)
// under parent.
func (r *Recorder) Instant(kind Kind, name string, parent ID, arg1, arg2 int64) {
	if r == nil {
		return
	}
	r.evs = append(r.evs, Event{
		ID:      r.nextID(),
		Parent:  parent,
		Kind:    kind,
		Name:    name,
		Worker:  r.worker,
		Start:   r.now(),
		Instant: true,
		Arg1:    arg1,
		Arg2:    arg2,
	})
}

// Span is an open span handle. The zero Span (from a nil recorder) is
// inert. Spans are values: cheap to pass, nothing to free.
type Span struct {
	r      *Recorder
	id     ID
	parent ID
	kind   Kind
	name   string
	start  int64
}

// ID returns the span's identity for parenting children (0 when inert,
// which children interpret as "root").
func (s Span) ID() ID { return s.id }

// EndArgs closes the span, attaching two kind-specific arguments (see
// Kind.ArgNames). The event is buffered on the owning recorder.
func (s Span) EndArgs(arg1, arg2 int64) {
	if s.r == nil {
		return
	}
	s.r.evs = append(s.r.evs, Event{
		ID:     s.id,
		Parent: s.parent,
		Kind:   s.kind,
		Name:   s.name,
		Worker: s.r.worker,
		Start:  s.start,
		Dur:    s.r.now() - s.start,
		Arg1:   arg1,
		Arg2:   arg2,
	})
}

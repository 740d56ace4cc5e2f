// Package export provides streaming trace exporters: Tracers that write
// each hierarchy event to an io.Writer as it happens, so arbitrarily
// long simulations can be traced without the in-memory cap of
// core.CollectTracer. Two formats are supported: JSON Lines (one event
// object per line, trivially consumed by jq/pandas) and the Chrome
// trace_event format that Perfetto and chrome://tracing load directly.
//
// Exporters keep per-kind event counts, so a finished trace file can be
// reconciled against the run's final registry snapshot: for every event
// kind k, Counts()[k] must equal the snapshot's k.MetricName() counter.
package export

import (
	"bufio"
	"fmt"
	"io"

	"bulkpreload/internal/core"
)

// counts tallies exported events per kind.
type counts [core.NumEventKinds]int64

// JSONL streams events as JSON Lines: one object per event with the
// cycle, kind name, and hex addresses, e.g.
//
//	{"cycle":1041,"kind":"transfer-hit","addr":"0x40f2a0","aux":"0x40f1b8"}
//
// Writes are buffered; call Flush (or Close) before reading the output.
// JSONL is not safe for concurrent use — like all Tracers it belongs to
// the simulation goroutine.
type JSONL struct {
	w   *bufio.Writer
	c   io.Closer // underlying closer when constructed from one, else nil
	n   counts
	err error
}

// NewJSONL wraps w in a streaming JSONL exporter. If w is an io.Closer
// (e.g. an *os.File), Close will close it.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Event implements core.Tracer.
func (j *JSONL) Event(e core.Event) {
	if j.err != nil {
		return
	}
	if int(e.Kind) < len(j.n) {
		j.n[e.Kind]++
	}
	if e.Aux != 0 {
		_, j.err = fmt.Fprintf(j.w, "{\"cycle\":%d,\"kind\":%q,\"addr\":\"%#x\",\"aux\":\"%#x\"}\n",
			e.Cycle, e.Kind.String(), uint64(e.Addr), uint64(e.Aux))
		return
	}
	_, j.err = fmt.Fprintf(j.w, "{\"cycle\":%d,\"kind\":%q,\"addr\":\"%#x\"}\n",
		e.Cycle, e.Kind.String(), uint64(e.Addr))
}

// Counts returns the number of events exported so far, indexed by
// core.EventKind.
func (j *JSONL) Counts() [core.NumEventKinds]int64 { return j.n }

// Flush drains the write buffer.
func (j *JSONL) Flush() error {
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close flushes and closes the underlying writer if it is closeable.
func (j *JSONL) Close() error {
	err := j.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Chrome streams events in the Chrome trace_event JSON array format.
// Each hierarchy event becomes an instant event ("ph":"i") whose
// timestamp is the simulation cycle and whose thread is the event kind,
// so Perfetto renders one swim lane per kind. Close terminates the JSON
// array; a file left unterminated by a crash still loads in Perfetto
// (the format tolerates a missing "]").
type Chrome struct {
	w     *bufio.Writer
	c     io.Closer
	n     counts
	err   error
	wrote bool
}

// NewChrome wraps w in a streaming Chrome trace_event exporter and
// writes the per-kind thread metadata up front. If w is an io.Closer,
// Close will close it.
func NewChrome(w io.Writer) *Chrome {
	t := &Chrome{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	_, t.err = t.w.WriteString("[")
	for k := 0; k < core.NumEventKinds && t.err == nil; k++ {
		t.sep()
		_, t.err = fmt.Fprintf(t.w,
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			k+1, core.EventKind(k).String())
	}
	return t
}

func (t *Chrome) sep() {
	if t.wrote {
		_, t.err = t.w.WriteString(",\n")
	} else {
		t.wrote = true
		_, t.err = t.w.WriteString("\n")
	}
}

// Event implements core.Tracer.
func (t *Chrome) Event(e core.Event) {
	if t.err != nil {
		return
	}
	if int(e.Kind) < len(t.n) {
		t.n[e.Kind]++
	}
	t.sep()
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w,
		`{"name":"%#x","ph":"i","s":"t","ts":%d,"pid":1,"tid":%d,"args":{"aux":"%#x"}}`,
		uint64(e.Addr), e.Cycle, int(e.Kind)+1, uint64(e.Aux))
}

// Flush drains the write buffer without terminating the array.
func (t *Chrome) Flush() error {
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close terminates the JSON array, flushes, and closes the underlying
// writer if it is closeable.
func (t *Chrome) Close() error {
	if t.err == nil {
		_, t.err = t.w.WriteString("\n]\n")
	}
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

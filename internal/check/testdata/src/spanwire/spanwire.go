// Package spanwire is the obsreg-analyzer span fixture: in a package
// that imports the span tracer, unexported recorder fields must be
// assigned somewhere in the package.
package spanwire

import "span"

// traced declares a recorder wired by a setter: compliant.
type traced struct {
	spans *span.Recorder
	n     int64
}

// SetSpans wires the recorder; nil keeps tracing disabled.
func (t *traced) SetSpans(r *span.Recorder) { t.spans = r }

func (t *traced) Step() {
	t.spans.Start()
	t.n++
}

// dangling declares a recorder nothing in the package ever assigns.
type dangling struct {
	spans *span.Recorder // want `span recorder field dangling.spans is never assigned in this package`
	n     int64
}

func (d *dangling) Step() { d.n++ }

// Params carries an exported recorder wired by callers in other
// packages (like engine.Params.Spans): exempt from the wiring rule.
type Params struct {
	Spans *span.Recorder
	N     int64
}

// literalWired is assigned through a composite literal, which counts.
type literalWired struct {
	spans *span.Recorder
	n     int64
}

func (l *literalWired) Step() { l.n++ }

func newLiteralWired(r *span.Recorder) *literalWired {
	return &literalWired{spans: r}
}

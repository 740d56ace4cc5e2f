package export

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"

	"bulkpreload/internal/core"
)

func sampleEvents() []core.Event {
	return []core.Event{
		{Cycle: 10, Kind: core.EvPredict, Addr: 0x4000, Aux: 0x4100},
		{Cycle: 12, Kind: core.EvPredict, Addr: 0x4100},
		{Cycle: 30, Kind: core.EvTransferHit, Addr: 0x8000, Aux: 0x8040},
		{Cycle: 31, Kind: core.EvMissReport, Addr: 0x9000},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	for _, e := range sampleEvents() {
		j.Event(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), sb.String())
	}
	var first struct {
		Cycle uint64 `json:"cycle"`
		Kind  string `json:"kind"`
		Addr  string `json:"addr"`
		Aux   string `json:"aux"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first.Cycle != 10 || first.Kind != "predict" || first.Addr != "0x4000" || first.Aux != "0x4100" {
		t.Fatalf("line 0 = %+v", first)
	}
	// A zero Aux is omitted entirely.
	if strings.Contains(lines[1], "aux") {
		t.Fatalf("zero aux not omitted: %s", lines[1])
	}

	n := j.Counts()
	if n[core.EvPredict] != 2 || n[core.EvTransferHit] != 1 || n[core.EvMissReport] != 1 {
		t.Fatalf("counts = %v", n)
	}
}

func TestChromeIsValidJSON(t *testing.T) {
	var sb strings.Builder
	c := NewChrome(&sb)
	for _, e := range sampleEvents() {
		c.Event(e)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var arr []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &arr); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v\n%s", err, sb.String())
	}
	// NumEventKinds metadata records + 4 instant events.
	if len(arr) != core.NumEventKinds+4 {
		t.Fatalf("got %d records, want %d", len(arr), core.NumEventKinds+4)
	}
	meta, inst := 0, 0
	for _, rec := range arr {
		switch rec["ph"] {
		case "M":
			meta++
		case "i":
			inst++
		default:
			t.Fatalf("unexpected phase %v", rec["ph"])
		}
	}
	if meta != core.NumEventKinds || inst != 4 {
		t.Fatalf("meta/instant = %d/%d", meta, inst)
	}
	if c.n[core.EvPredict] != 2 {
		t.Fatalf("counts = %v", c.n)
	}
}

// failWriter errors after the first write to exercise error latching.
type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errShort
	}
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

func TestJSONLWriteErrorLatches(t *testing.T) {
	fw := &failWriter{}
	j := &JSONL{w: bufio.NewWriterSize(fw, 8)} // tiny buffer forces writes through
	for _, e := range sampleEvents() {
		j.Event(e)
	}
	if err := j.Close(); err == nil {
		t.Fatal("write error not surfaced by Close")
	}
}

func TestMetricNameCoverage(t *testing.T) {
	// Every kind must map to a registry counter so exported traces can be
	// reconciled against snapshots.
	for k := 0; k < core.NumEventKinds; k++ {
		if core.EventKind(k).MetricName() == "" {
			t.Fatalf("EventKind %v has no MetricName", core.EventKind(k))
		}
	}
	if core.EventKind(200).MetricName() != "" {
		t.Fatal("unknown kind should map to empty MetricName")
	}
}

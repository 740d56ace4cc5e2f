package report

import (
	"bytes"
	"strings"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

func TestTransferTimeline(t *testing.T) {
	events := []core.Event{
		{Cycle: 100, Kind: core.EvICacheReport, Addr: 0x40010},
		{Cycle: 105, Kind: core.EvMissReport, Addr: 0x40000},
		{Cycle: 120, Kind: core.EvTransferHit, Addr: 0x40020, Aux: 0x40100},
		{Cycle: 125, Kind: core.EvTransferHit, Addr: 0x40040, Aux: 0x40200},
		{Cycle: 130, Kind: core.EvChase, Addr: 0x42000},
		// A miss in another block with no icache miss and no hits: the
		// partial-search-only story.
		{Cycle: 200, Kind: core.EvMissReport, Addr: 0x90000},
		// Unrelated event kinds are ignored.
		{Cycle: 300, Kind: core.EvPredict, Addr: 0x40020, Aux: 0x40100},
	}
	var buf bytes.Buffer
	TransferTimeline(&buf, events, 0)
	out := buf.String()
	for _, want := range []string{
		"block 0x40000", "icache-miss @100", "btb1-miss @105",
		"2 entries preloaded @120..125",
		"block 0x90000", "partial search only",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q in:\n%s", want, out)
		}
	}
	// maxBlocks bounds the output.
	buf.Reset()
	TransferTimeline(&buf, events, 1)
	if strings.Contains(buf.String(), "0x90000") {
		t.Error("maxBlocks not honored")
	}
}

func TestTransferTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	TransferTimeline(&buf, nil, 0)
	if !strings.Contains(buf.String(), "no transfer activity") {
		t.Error("empty timeline message missing")
	}
}

func TestTransferTimelineEndToEnd(t *testing.T) {
	// Drive a real hierarchy and render its captured events.
	h := core.New(core.DefaultConfig(), fault.Config{})
	tr := &core.CollectTracer{}
	h.SetTracer(tr)
	for i := 0; i < 6; i++ {
		h.Resolve(takenInst(0x40000+i*200, 0x41000), nil, 0)
	}
	h.ReportBTB1Miss(0x40000, 500)
	h.ReportICacheMiss(0x40000, 500)
	h.Advance(900)
	var buf bytes.Buffer
	TransferTimeline(&buf, tr.Events, 0)
	if !strings.Contains(buf.String(), "entries preloaded") {
		t.Errorf("real transfer not rendered:\n%s", buf.String())
	}
}

// takenInst builds a taken conditional for timeline tests.
func takenInst(addr, target int) trace.Inst {
	return trace.Inst{Addr: zaddr.Addr(addr), Target: zaddr.Addr(target),
		Length: 4, Kind: trace.CondDirect, Taken: true, StaticTaken: true}
}

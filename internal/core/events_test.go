package core

import (
	"strings"
	"testing"

	"bulkpreload/internal/fault"
	"bulkpreload/internal/zaddr"
)

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if strings.HasPrefix(k.String(), "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if EventKind(99).String() != "EventKind(99)" {
		t.Error("unknown kind string wrong")
	}
}

func TestEventString(t *testing.T) {
	withAux := Event{Cycle: 5, Kind: EvPredict, Addr: 0x100, Aux: 0x200}
	if !strings.Contains(withAux.String(), "->") {
		t.Error("aux target not rendered")
	}
	noAux := Event{Cycle: 5, Kind: EvMissReport, Addr: 0x100}
	if strings.Contains(noAux.String(), "->") {
		t.Error("spurious aux in rendering")
	}
	unknown := Event{Cycle: 1, Kind: EventKind(42), Addr: 0x100}
	if !strings.Contains(unknown.String(), "EventKind(42)") {
		t.Errorf("unknown kind rendered as %q", unknown.String())
	}
}

// TestEventLifecycle traces a full install -> predict -> promote ->
// evict -> transfer lifecycle and checks the event sequence.
func TestEventLifecycle(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, fault.Config{})
	tr := &CollectTracer{}
	h.SetTracer(tr)

	// Surprise install.
	br := takenBranch(0x40010, 0x40100)
	h.Resolve(br, nil, 0)
	if countEvents(tr, EvSurpriseInstall) != 1 {
		t.Fatalf("surprise installs = %d", countEvents(tr, EvSurpriseInstall))
	}
	// Predict from BTBP (after visibility) -> promotion event.
	h.Advance(100)
	if _, ok := h.Predict(br.Addr, 200); !ok {
		t.Fatal("prediction missing")
	}
	if countEvents(tr, EvPredict) != 1 || countEvents(tr, EvPromotion) != 1 {
		t.Fatalf("predict/promote = %d/%d", countEvents(tr, EvPredict), countEvents(tr, EvPromotion))
	}
	// Miss + icache reports and a bulk transfer.
	h.ReportBTB1Miss(0x40010, 300)
	h.ReportICacheMiss(0x40010, 300)
	h.Advance(600)
	if countEvents(tr, EvMissReport) != 1 || countEvents(tr, EvICacheReport) != 1 {
		t.Error("miss reports not traced")
	}
	// The branch is in BTB1 now; the transfer of its block hits its BTB2
	// copy (written at surprise install) but drops the duplicate — the
	// transfer-hit event still fires.
	if countEvents(tr, EvTransferHit) == 0 {
		t.Error("transfer hits not traced")
	}
	// Preload event.
	h.PreloadBranch(0x50000, 0x51000, 4, 700)
	if countEvents(tr, EvPreloadInstall) != 1 {
		t.Error("preload install not traced")
	}
	// Removing the tracer stops emission.
	h.SetTracer(nil)
	n := len(tr.Events)
	h.PreloadBranch(0x60000, 0x61000, 4, 800)
	if len(tr.Events) != n {
		t.Error("events emitted after tracer removed")
	}
}

func TestCollectTracerCap(t *testing.T) {
	tr := &CollectTracer{Max: 2}
	for i := 0; i < 5; i++ {
		tr.Event(Event{Kind: EvPredict})
	}
	if len(tr.Events) != 2 {
		t.Errorf("cap ignored: %d events", len(tr.Events))
	}
}

func TestCollectTracerRing(t *testing.T) {
	tr := &CollectTracer{Max: 3, Ring: true}
	for i := 0; i < 7; i++ {
		tr.Event(Event{Cycle: uint64(i), Kind: EvPredict})
	}
	if len(tr.Events) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(tr.Events))
	}
	ordered := tr.Ordered()
	for i, want := range []uint64{4, 5, 6} {
		if ordered[i].Cycle != want {
			t.Errorf("ordered[%d].Cycle = %d, want %d (last events, arrival order)",
				i, ordered[i].Cycle, want)
		}
	}
	// Before wrapping, Ordered is the identity.
	fresh := &CollectTracer{Max: 5, Ring: true}
	fresh.Event(Event{Cycle: 9})
	if got := fresh.Ordered(); len(got) != 1 || got[0].Cycle != 9 {
		t.Errorf("unwrapped ring Ordered = %v", got)
	}
}

func TestTeeTracer(t *testing.T) {
	a := &CollectTracer{}
	b := &CollectTracer{Max: 1}
	tee := TeeTracer{a, b}
	for i := 0; i < 3; i++ {
		tee.Event(Event{Cycle: uint64(i), Kind: EvPredict})
	}
	if len(a.Events) != 3 || len(b.Events) != 1 {
		t.Errorf("tee fan-out wrong: %d/%d events", len(a.Events), len(b.Events))
	}
}

func TestVictimEventOnCascade(t *testing.T) {
	h := New(testConfig(), fault.Config{})
	tr := &CollectTracer{}
	h.SetTracer(tr)
	// Fill one BTB1 row (2 ways in test config) and overflow it.
	for i := 0; i < 3; i++ {
		a := zaddr.Addr(0x1000 + i*512)
		in := takenBranch(a, a+0x100)
		h.Resolve(in, nil, uint64(i*100))
		h.Advance(uint64(i*100) + h.cfg.SurpriseInstallDelay)
		h.Predict(a, uint64(i*100)+50+h.cfg.SurpriseInstallDelay)
	}
	if countEvents(tr, EvVictim) == 0 {
		t.Error("victim cascade not traced")
	}
}

// countEvents returns how many events of the given kind tr collected.
func countEvents(tr *CollectTracer, kind EventKind) int {
	n := 0
	for _, e := range tr.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

package predictor

import (
	"fmt"
	"testing"

	"bulkpreload/internal/zaddr"
)

func TestTicksConversion(t *testing.T) {
	if Cycles(3) != 36 {
		t.Errorf("Cycles(3) = %d", Cycles(3))
	}
	if Cycles(3).ToCycles() != 3 {
		t.Errorf("ToCycles = %d", Cycles(3).ToCycles())
	}
	if Ticks(-5).ToCycles() != 0 {
		t.Error("negative ticks should clamp to 0 cycles")
	}
	if Cycles(1).Float() != 1.0 {
		t.Error("Float conversion wrong")
	}
	if Ticks(6).Float() != 0.5 {
		t.Error("half-cycle Float wrong")
	}
}

func TestDefaultThroughputMatchesTable1(t *testing.T) {
	tp := DefaultThroughput
	// "as fast as one prediction every cycle ... a loop consisting of a
	// single taken branch"
	if tp.Cost(CaseTakenLoop) != Cycles(1) {
		t.Error("taken-loop cost != 1 cycle")
	}
	// "branch predictions are possible every other cycle with the
	// assistance of a ... (FIT)"
	if tp.Cost(CaseTakenFIT) != Cycles(2) {
		t.Error("FIT cost != 2 cycles")
	}
	// "one taken branch every 3 cycles when ... MRU ... column"
	if tp.Cost(CaseTakenMRU) != Cycles(3) {
		t.Error("MRU cost != 3 cycles")
	}
	// "Otherwise ... one taken branch every 4 cycles"
	if tp.Cost(CaseTakenOther) != Cycles(4) {
		t.Error("other-taken cost != 4 cycles")
	}
	// "Not-taken predictions ... 2 predictions every 5 cycles"
	if tp.Cost(CaseNotTakenPaired)*2 != Cycles(5) {
		t.Error("paired not-taken cost != 2.5 cycles")
	}
	// "one not-taken prediction ... every 4 cycles"
	if tp.Cost(CaseNotTaken) != Cycles(4) {
		t.Error("lone not-taken cost != 4 cycles")
	}
	// "the average search rate is 16 bytes per cycle" => 2 cycles/row.
	if tp.SeqSearchPerRow != Cycles(2) {
		t.Error("sequential row cost != 2 cycles")
	}
}

func TestClassifyTaken(t *testing.T) {
	cases := []struct {
		loop, fit, mru bool
		want           PredCase
	}{
		{true, true, true, CaseTakenLoop},
		{false, true, true, CaseTakenFIT},
		{false, false, true, CaseTakenMRU},
		{false, false, false, CaseTakenOther},
	}
	for _, c := range cases {
		if got := ClassifyTaken(c.loop, c.fit, c.mru); got != c.want {
			t.Errorf("ClassifyTaken(%v,%v,%v) = %v, want %v", c.loop, c.fit, c.mru, got, c.want)
		}
	}
	if ClassifyNotTaken(true) != CaseNotTakenPaired || ClassifyNotTaken(false) != CaseNotTaken {
		t.Error("ClassifyNotTaken wrong")
	}
}

func TestPredCaseString(t *testing.T) {
	for c := CaseTakenLoop; c <= CaseNotTaken; c++ {
		if c.String() == "" {
			t.Errorf("empty string for case %d", c)
		}
	}
	if PredCase(77).String() != "PredCase(77)" {
		t.Error("unknown case string")
	}
}

func TestCostPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cost accepted invalid case")
		}
	}()
	DefaultThroughput.Cost(PredCase(99))
}

func TestMissConfigValidate(t *testing.T) {
	if err := DefaultMissConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultMissConfig.SearchLimit != 4 {
		t.Error("paper setting is 4 searches")
	}
	if err := (MissConfig{SearchLimit: 0}).Validate(); err == nil {
		t.Error("accepted zero limit")
	}
}

func TestMissDetectorTable2Sequence(t *testing.T) {
	// Table 2 walks a 3-search limit: searches at 0x102, 0x120, 0x140 all
	// empty => miss reported at starting search address 0x102.
	d := NewMissDetector(MissConfig{SearchLimit: 3})
	if _, miss := d.ObserveSearch(0x102, false); miss {
		t.Fatal("miss after 1 search")
	}
	if _, miss := d.ObserveSearch(0x120, false); miss {
		t.Fatal("miss after 2 searches")
	}
	at, miss := d.ObserveSearch(0x140, false)
	if !miss || at != 0x102 {
		t.Fatalf("miss=%v at %#x, want miss at 0x102", miss, uint64(at))
	}
	if d.Reported() != 1 {
		t.Errorf("Reported = %d", d.Reported())
	}
}

func TestMissDetectorResetOnHit(t *testing.T) {
	d := NewMissDetector(MissConfig{SearchLimit: 3})
	d.ObserveSearch(0x100, false)
	d.ObserveSearch(0x120, false)
	d.ObserveSearch(0x140, true) // a prediction: window resets
	d.ObserveSearch(0x160, false)
	d.ObserveSearch(0x180, false)
	if _, miss := d.ObserveSearch(0x1A0, false); !miss {
		t.Fatal("expected miss on 3rd empty search of new window")
	}
	at, _ := func() (zaddr.Addr, bool) { return 0x160, true }()
	_ = at
}

func TestMissDetectorWindowAnchor(t *testing.T) {
	d := NewMissDetector(MissConfig{SearchLimit: 2})
	d.ObserveSearch(0x500, true)
	d.ObserveSearch(0x520, false)
	at, miss := d.ObserveSearch(0x540, false)
	if !miss || at != 0x520 {
		t.Fatalf("anchor = %#x, want first empty search 0x520", uint64(at))
	}
}

func TestMissDetectorContinuesAfterReport(t *testing.T) {
	// A long cold run should produce one miss per window.
	d := NewMissDetector(MissConfig{SearchLimit: 4})
	misses := 0
	for i := 0; i < 16; i++ {
		if _, m := d.ObserveSearch(zaddr.Addr(0x1000+i*32), false); m {
			misses++
		}
	}
	if misses != 4 {
		t.Errorf("16 empty searches with limit 4 reported %d misses, want 4", misses)
	}
}

func TestMissDetectorRestart(t *testing.T) {
	d := NewMissDetector(MissConfig{SearchLimit: 2})
	d.ObserveSearch(0x100, false)
	d.Restart() // e.g. a taken-branch redirect
	d.ObserveSearch(0x2000, false)
	at, miss := d.ObserveSearch(0x2020, false)
	if !miss || at != 0x2000 {
		t.Fatalf("after Restart anchor = %#x, want 0x2000", uint64(at))
	}
}

func TestNewMissDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted bad config")
		}
	}()
	NewMissDetector(MissConfig{})
}

func TestPipelineStages(t *testing.T) {
	stages := PipelineStages()
	if len(stages) != 7 {
		t.Fatalf("Table 1 describes 7 stages (b0..b6), got %d", len(stages))
	}
	for i, s := range stages {
		want := fmt.Sprintf("b%d", i)
		if s.Name != want {
			t.Errorf("stage %d named %q, want %q", i, s.Name, want)
		}
		if s.Search == "" {
			t.Errorf("%s: empty search role", s.Name)
		}
	}
	// The FIT re-index happens in b2; the non-FIT MRU assumption in b3 —
	// the one-cycle gap behind the 2- vs 3-cycle taken rates.
	if stages[2].ReindexPrediction == "" || stages[3].ReindexPrediction == "" {
		t.Error("b2/b3 re-index roles missing")
	}
	if MissDetectCycle != 3 {
		t.Errorf("miss detect cycle = %d, paper says b3", MissDetectCycle)
	}
	// The tracker's start delay (7) plus the detect cycle lands on b10,
	// "the fastest the BTB2 search can be started".
	if start := MissDetectCycle + 7; start != 10 {
		t.Errorf("b%d, want b10", start)
	}
}

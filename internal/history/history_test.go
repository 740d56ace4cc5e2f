package history

import (
	"testing"
	"testing/quick"

	"bulkpreload/internal/zaddr"
)

func TestRecordPredictionDirs(t *testing.T) {
	var h History
	// taken, not-taken, taken => dirs = 0b101
	h.RecordPrediction(0x1000, true)
	h.RecordPrediction(0x1004, false)
	h.RecordPrediction(0x1008, true)
	if h.dirs != 0b101 {
		t.Errorf("dirs = %b, want 101", h.dirs)
	}
	if h.count != 2 {
		t.Errorf("count = %d, want 2", h.count)
	}
}

func TestDirHistoryDepthLimit(t *testing.T) {
	var h History
	for i := 0; i < 100; i++ {
		h.RecordPrediction(zaddr.Addr(i*4), true)
	}
	if h.dirs != (1<<DirDepth)-1 {
		t.Errorf("dirs = %b after 100 takens", h.dirs)
	}
	if h.count != TakenAddrDepth {
		t.Errorf("count = %d, want %d", h.count, TakenAddrDepth)
	}
}

func TestSnapshotRestore(t *testing.T) {
	var h History
	h.RecordPrediction(0x100, true)
	h.RecordPrediction(0x200, true)
	snap := h.State()
	idxBefore := h.PHTIndex(0x300, 4096)
	ctbBefore := h.CTBIndex(0x300, 2048)
	h.RecordPrediction(0x400, false)
	h.RecordPrediction(0x500, true)
	h.RestoreState(snap)
	if h.PHTIndex(0x300, 4096) != idxBefore {
		t.Error("PHT index changed across State/RestoreState")
	}
	if h.CTBIndex(0x300, 2048) != ctbBefore {
		t.Error("CTB index changed across State/RestoreState")
	}
}

func TestReset(t *testing.T) {
	var h History
	h.RecordPrediction(0x100, true)
	h.Reset()
	if h.dirs != 0 || h.count != 0 {
		t.Error("Reset left state")
	}
}

func TestIndexInRangeProperty(t *testing.T) {
	f := func(seed uint32, addrRaw uint64) bool {
		var h History
		for i := 0; i < int(seed%40); i++ {
			h.RecordPrediction(zaddr.Addr((uint64(seed)*31+uint64(i)*8)&^1), i%3 != 0)
		}
		addr := zaddr.Addr(addrRaw &^ 1)
		p := h.PHTIndex(addr, 4096)
		c := h.CTBIndex(addr, 2048)
		return p >= 0 && p < 4096 && c >= 0 && c < 2048
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathSensitivity(t *testing.T) {
	// Two different paths to the same branch should (almost always) index
	// differently; that is the whole point of path history.
	var h1, h2 History
	h1.RecordPrediction(0x1000, true)
	h1.RecordPrediction(0x2000, true)
	h2.RecordPrediction(0x3000, true)
	h2.RecordPrediction(0x4000, true)
	branch := zaddr.Addr(0x5000)
	if h1.PHTIndex(branch, 4096) == h2.PHTIndex(branch, 4096) &&
		h1.CTBIndex(branch, 2048) == h2.CTBIndex(branch, 2048) {
		t.Error("different paths hash identically in both tables (suspicious)")
	}
}

func TestDirectionSensitivity(t *testing.T) {
	// Same taken addresses, different direction pattern => different PHT
	// index (directions are part of the PHT index only).
	var h1, h2 History
	h1.RecordPrediction(0x1000, true)
	h1.RecordPrediction(0x2000, false)
	h1.RecordPrediction(0x2004, false)
	h2.RecordPrediction(0x1000, true)
	h2.RecordPrediction(0x2000, false)
	h2.RecordPrediction(0x2004, false)
	h2.RecordPrediction(0x2008, false) // one extra not-taken
	branch := zaddr.Addr(0x5000)
	if h1.PHTIndex(branch, 4096) == h2.PHTIndex(branch, 4096) {
		t.Error("PHT index ignores direction history")
	}
	// CTB index must be unchanged by extra not-taken predictions.
	if h1.CTBIndex(branch, 2048) != h2.CTBIndex(branch, 2048) {
		t.Error("CTB index depends on not-taken predictions; it must not")
	}
}

func TestPathOrderMatters(t *testing.T) {
	// A->B and B->A paths must index differently (rotation by age).
	var h1, h2 History
	h1.RecordPrediction(0x1000, true)
	h1.RecordPrediction(0x2000, true)
	h2.RecordPrediction(0x2000, true)
	h2.RecordPrediction(0x1000, true)
	branch := zaddr.Addr(0x5000)
	if h1.CTBIndex(branch, 2048) == h2.CTBIndex(branch, 2048) {
		t.Error("CTB index is order-insensitive; paths A,B and B,A collide")
	}
}

func TestLog2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two table size")
		}
	}()
	var h History
	h.PHTIndex(0, 1000)
}

func TestDeterminism(t *testing.T) {
	build := func() *History {
		var h History
		for i := 0; i < 30; i++ {
			h.RecordPrediction(zaddr.Addr(0x1000+8*i), i%2 == 0)
		}
		return &h
	}
	a, b := build(), build()
	for _, addr := range []zaddr.Addr{0x10, 0x5000, 0xABCDE0} {
		if a.PHTIndex(addr, 4096) != b.PHTIndex(addr, 4096) {
			t.Fatal("PHTIndex nondeterministic")
		}
		if a.CTBIndex(addr, 2048) != b.CTBIndex(addr, 2048) {
			t.Fatal("CTBIndex nondeterministic")
		}
	}
}

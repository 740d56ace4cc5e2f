package zaddr

import (
	"testing"
	"testing/quick"
)

func TestBitsKnownValues(t *testing.T) {
	tests := []struct {
		a      Addr
		hi, lo uint
		want   uint64
	}{
		{0xFFFFFFFFFFFFFFFF, 0, 63, 0xFFFFFFFFFFFFFFFF},
		{0x8000000000000000, 0, 0, 1},
		{0x8000000000000000, 1, 63, 0},
		{0x0000000000000001, 63, 63, 1},
		{0x0000000000000001, 0, 62, 0},
		// BTB1 index: bits 49:58 (10 bits). Address 0x0000_0000_0000_4000:
		// bit 49 corresponds to value 1<<14.
		{1 << 14, 49, 58, 1 << 9},
		{1 << 5, 49, 58, 1}, // bit 58 = 1<<5
		{1 << 4, 49, 58, 0}, // bit 59 is below the range
		// BTB2 index: bits 47:58 (12 bits).
		{1 << 16, 47, 58, 1 << 11},
		// BTBP index: bits 52:58 (7 bits).
		{1 << 11, 52, 58, 1 << 6},
	}
	for _, tt := range tests {
		if got := Bits(tt.a, tt.hi, tt.lo); got != tt.want {
			t.Errorf("Bits(%#x, %d, %d) = %#x, want %#x", uint64(tt.a), tt.hi, tt.lo, got, tt.want)
		}
	}
}

func TestBitsSetBitsRoundTrip(t *testing.T) {
	f := func(a uint64, hiRaw, widthRaw uint8) bool {
		hi := uint(hiRaw) % 64
		width := uint(widthRaw)%(64-hi) + 1
		lo := hi + width - 1
		v := Bits(Addr(a), hi, lo)
		back := SetBits(Addr(a), hi, lo, v)
		return back == Addr(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBitsThenBits(t *testing.T) {
	f := func(a, v uint64, hiRaw, widthRaw uint8) bool {
		hi := uint(hiRaw) % 64
		width := uint(widthRaw)%(64-hi) + 1
		lo := hi + width - 1
		masked := v
		if width < 64 {
			masked = v & ((1 << width) - 1)
		}
		got := Bits(SetBits(Addr(a), hi, lo, v), hi, lo)
		return got == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsInvalidRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bit range")
		}
	}()
	Bits(0, 10, 5)
}

func TestRowGeometry(t *testing.T) {
	a := Addr(0x1234567) // arbitrary
	if RowBase(a)%RowBytes != 0 {
		t.Errorf("RowBase not aligned: %#x", uint64(RowBase(a)))
	}
	if RowBase(a) > a || a-RowBase(a) >= RowBytes {
		t.Errorf("address %#x not within its row base %#x", uint64(a), uint64(RowBase(a)))
	}
	if got := RowOffset(a); got != uint(a-RowBase(a)) {
		t.Errorf("RowOffset = %d, want %d", got, uint(a-RowBase(a)))
	}
}

func TestBlockSectorQuartileGeometry(t *testing.T) {
	// A block is 4 KB = 4 quartiles of 1 KB = 32 sectors of 128 B.
	if SectorsPerBlock != 32 || QuartilesPerBlock != 4 || SectorsPerQuartile != 8 {
		t.Fatalf("geometry constants wrong: %d %d %d", SectorsPerBlock, QuartilesPerBlock, SectorsPerQuartile)
	}
	if RowsPerBlock != 128 || RowsPerSector != 4 {
		t.Fatalf("row constants wrong: %d %d", RowsPerBlock, RowsPerSector)
	}
	a := Addr(0x7F3C) // block 7, offset 0xF3C
	if Block(a) != 7 {
		t.Errorf("Block = %d, want 7", Block(a))
	}
	if BlockOffset(a) != 0xF3C {
		t.Errorf("BlockOffset = %#x", BlockOffset(a))
	}
	if Sector(a) != int(0xF3C/128) {
		t.Errorf("Sector = %d", Sector(a))
	}
	if Quartile(a) != 3 {
		t.Errorf("Quartile = %d, want 3", Quartile(a))
	}
	if !SameBlock(a, 0x7000) || SameBlock(a, 0x8000) {
		t.Error("SameBlock misclassifies")
	}
}

func TestSectorQuartileConsistency(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		s := Sector(a)
		q := Quartile(a)
		if s < 0 || s >= SectorsPerBlock || q < 0 || q >= QuartilesPerBlock {
			return false
		}
		return SectorQuartile(s) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlign(t *testing.T) {
	if Align(0x1237, 16) != 0x1230 {
		t.Errorf("Align(0x1237,16) = %#x", uint64(Align(0x1237, 16)))
	}
	if Align(0x1230, 16) != 0x1230 {
		t.Error("Align not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two alignment")
		}
	}()
	Align(0, 12)
}

func TestPaperIndexWidths(t *testing.T) {
	// The paper's index ranges must produce exactly the row counts of the
	// shipping structures: BTB1 1k rows, BTBP 128 rows, BTB2 4k rows.
	max := Addr(^uint64(0))
	if got := Bits(max, 49, 58) + 1; got != 1024 {
		t.Errorf("BTB1 index space = %d, want 1024", got)
	}
	if got := Bits(max, 52, 58) + 1; got != 128 {
		t.Errorf("BTBP index space = %d, want 128", got)
	}
	if got := Bits(max, 47, 58) + 1; got != 4096 {
		t.Errorf("BTB2 index space = %d, want 4096", got)
	}
	// Bits 59:63 cover the 32 bytes within a row.
	if got := Bits(max, 59, 63) + 1; got != RowBytes {
		t.Errorf("row offset space = %d, want %d", got, RowBytes)
	}
}

// TestFieldMatchesBits checks the precomputed Field against Bits over
// every valid range, and that NewField rejects what Bits rejects.
func TestFieldMatchesBits(t *testing.T) {
	addrs := []Addr{0, 1, ^Addr(0), 0x8000_0000_0000_0000, 0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210}
	for hi := uint(0); hi < 64; hi++ {
		for lo := hi; lo < 64; lo++ {
			f := NewField(hi, lo)
			for _, a := range addrs {
				if got, want := f.Of(a), Bits(a, hi, lo); got != want {
					t.Fatalf("NewField(%d, %d).Of(%#x) = %#x, want %#x", hi, lo, uint64(a), got, want)
				}
			}
		}
	}
	for _, r := range [][2]uint{{5, 4}, {0, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewField(%d, %d) accepted an invalid range", r[0], r[1])
				}
			}()
			NewField(r[0], r[1])
		}()
	}
}

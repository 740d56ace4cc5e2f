package zaddr

import (
	"strings"
	"testing"
	"testing/quick"
)

// FuzzBitsSetBitsRoundTrip cross-checks the two core laws of the
// bit-field pair on fuzzer-chosen inputs: extract-then-insert is the
// identity, and insert-then-extract recovers the inserted value mod the
// field width. Out-of-contract ranges must panic rather than wrap.
func FuzzBitsSetBitsRoundTrip(f *testing.F) {
	f.Add(uint64(0x0000123456789ABC), uint64(0xFFF), uint(49), uint(58))
	f.Add(uint64(0), uint64(0), uint(0), uint(63))
	f.Add(^uint64(0), ^uint64(0), uint(63), uint(63))
	f.Add(uint64(1<<14), uint64(5), uint(47), uint(58))
	f.Fuzz(func(t *testing.T, a, v uint64, hi, lo uint) {
		if hi > lo || lo > 63 {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Bits(%#x, %d, %d): expected panic for invalid range", a, hi, lo)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "bit range") {
					t.Fatalf("panic %v does not describe the bit range", r)
				}
			}()
			Bits(Addr(a), hi, lo)
			return
		}
		width := lo - hi + 1
		if got, want := NewField(hi, lo).Of(Addr(a)), Bits(Addr(a), hi, lo); got != want {
			t.Fatalf("NewField(%d, %d).Of(%#x) = %#x, Bits says %#x", hi, lo, a, got, want)
		}
		if got := SetBits(Addr(a), hi, lo, Bits(Addr(a), hi, lo)); got != Addr(a) {
			t.Fatalf("SetBits(a, %d, %d, Bits(a, %d, %d)) = %#x, want %#x", hi, lo, hi, lo, uint64(got), a)
		}
		masked := v
		if width < 64 {
			masked = v & ((1 << width) - 1)
		}
		if got := Bits(SetBits(Addr(a), hi, lo, v), hi, lo); got != masked {
			t.Fatalf("Bits(SetBits(a, %d, %d, %#x)) = %#x, want %#x", hi, lo, v, got, masked)
		}
		// Bits outside hi:lo must be untouched by SetBits.
		changed := uint64(SetBits(Addr(a), hi, lo, v)) ^ a
		var fieldMask uint64
		if width == 64 {
			fieldMask = ^uint64(0)
		} else {
			fieldMask = ((1 << width) - 1) << (63 - lo)
		}
		if changed&^fieldMask != 0 {
			t.Fatalf("SetBits(a, %d, %d, %#x) disturbed bits outside the field: %#x", hi, lo, v, changed&^fieldMask)
		}
	})
}

// TestSetBitsPreservesOutsideField is the quick-check twin of the fuzz
// target's untouched-bits law, so the property is exercised on every
// plain `go test` run.
func TestSetBitsPreservesOutsideField(t *testing.T) {
	f := func(a, v uint64, hiRaw, widthRaw uint8) bool {
		hi := uint(hiRaw) % 64
		width := uint(widthRaw)%(64-hi) + 1
		lo := hi + width - 1
		var fieldMask uint64
		if width == 64 {
			fieldMask = ^uint64(0)
		} else {
			fieldMask = ((1 << width) - 1) << (63 - lo)
		}
		changed := uint64(SetBits(Addr(a), hi, lo, v)) ^ a
		return changed&^fieldMask == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidRangePanicNamesOffendingBits(t *testing.T) {
	cases := []struct{ hi, lo uint }{{10, 5}, {0, 64}, {70, 80}}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Bits(0, %d, %d): expected panic", c.hi, c.lo)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %v is not a string", r)
				}
				if !strings.Contains(msg, "bit range") || !strings.Contains(msg, "hi <= lo") {
					t.Fatalf("panic %q does not explain the contract", msg)
				}
			}()
			Bits(0, c.hi, c.lo)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetBits(0, %d, %d, 0): expected panic", c.hi, c.lo)
				}
			}()
			SetBits(0, c.hi, c.lo, 0)
		}()
	}
}

func TestGranuleHelpers(t *testing.T) {
	a := Addr(0x12345)
	if got, want := Halfword(a), uint64(a)>>1; got != want {
		t.Errorf("Halfword(%#x) = %#x, want %#x", uint64(a), got, want)
	}
	if got, want := OffsetWithin(a, 64), uint64(a)%64; got != want {
		t.Errorf("OffsetWithin(%#x, 64) = %d, want %d", uint64(a), got, want)
	}
	if got, want := ChunkIndex(a, 64), uint64(a)/64; got != want {
		t.Errorf("ChunkIndex(%#x, 64) = %d, want %d", uint64(a), got, want)
	}
	// The generalized helpers must agree with the fixed-geometry ones.
	if OffsetWithin(a, RowBytes) != uint64(RowOffset(a)) {
		t.Error("OffsetWithin(RowBytes) disagrees with RowOffset")
	}
	if ChunkIndex(a, BlockBytes) != Block(a) {
		t.Error("ChunkIndex(BlockBytes) disagrees with Block")
	}
	if FlipBit(FlipBit(a, 7), 7) != a {
		t.Error("FlipBit is not an involution")
	}
	if FlipBit(a, 0) != a^1 {
		t.Errorf("FlipBit(a, 0) must flip the LSB")
	}
	defer func() {
		if recover() == nil {
			t.Error("OffsetWithin with non-power-of-two size must panic")
		}
	}()
	OffsetWithin(a, 48)
}

// Package zaddr provides address bit-field arithmetic in the big-endian
// bit-numbering convention used by z/Architecture and throughout the
// HPCA 2013 paper "Two Level Bulk Preload Branch Prediction": bit 0 is the
// most significant bit of a 64-bit address and bit 63 the least
// significant. All structure index ranges quoted in the paper (BTB1 bits
// 49:58, BTBP bits 52:58, BTB2 bits 47:58, block bits 0:51) follow that
// convention and map directly onto the helpers here.
package zaddr

import (
	"fmt"
	"math/bits"
)

// Addr is a 64-bit instruction address.
type Addr uint64

// Paper-defined geometry constants. A BTB row covers 32 bytes of
// instruction space; BTB2 bulk transfers operate on 4 KB blocks divided
// into 32 sectors of 128 bytes, grouped as four 1 KB quartiles of eight
// sectors each.
const (
	RowBytes     = 32   // instruction bytes covered by one BTB row
	SectorBytes  = 128  // ordering-table sector granule
	QuartileSize = 1024 // 1 KB quartile
	BlockBytes   = 4096 // BTB2 bulk-transfer block

	SectorsPerBlock    = BlockBytes / SectorBytes   // 32
	QuartilesPerBlock  = BlockBytes / QuartileSize  // 4
	SectorsPerQuartile = QuartileSize / SectorBytes // 8
	RowsPerBlock       = BlockBytes / RowBytes      // 128
	RowsPerSector      = SectorBytes / RowBytes     // 4
)

// Bits extracts big-endian bit range hi..lo (inclusive, hi <= lo, bit 0 =
// MSB) from a. For example Bits(a, 49, 58) yields the 10-bit BTB1 index.
// Production tables hold a Field instead; Bits is the building block of
// the BTB's test reference model, which restates the geometry bit by bit.
func Bits(a Addr, hi, lo uint) uint64 {
	if hi > lo || lo > 63 {
		panic(fmt.Sprintf("zaddr: invalid bit range %d:%d (want big-endian hi <= lo <= 63)", hi, lo))
	}
	width := lo - hi + 1
	shift := 63 - lo
	if width == 64 {
		return uint64(a)
	}
	return (uint64(a) >> shift) & ((1 << width) - 1)
}

// Field is a big-endian bit range validated once, so extracting it is
// a single shift and mask. Hot paths that read the same range on every
// call (a table's index) hold a Field instead of calling Bits.
type Field struct {
	shift uint
	mask  uint64
}

// NewField returns the bit range hi..lo; it panics on a range Bits would
// reject.
func NewField(hi, lo uint) Field {
	if hi > lo || lo > 63 {
		panic(fmt.Sprintf("zaddr: invalid bit range %d:%d (want big-endian hi <= lo <= 63)", hi, lo))
	}
	return Field{shift: 63 - lo, mask: ^uint64(0) >> (63 - (lo - hi))}
}

// Of returns the field's bits of a; it equals Bits(a, hi, lo).
func (f Field) Of(a Addr) uint64 { return uint64(a) >> f.shift & f.mask }

// SetBits returns a with big-endian bit range hi..lo replaced by v's low
// bits. It is the inverse of Bits. The BTB tests compose addresses with
// it field by field; no production path calls it.
func SetBits(a Addr, hi, lo uint, v uint64) Addr {
	if hi > lo || lo > 63 {
		panic(fmt.Sprintf("zaddr: invalid bit range %d:%d (want big-endian hi <= lo <= 63)", hi, lo))
	}
	width := lo - hi + 1
	shift := 63 - lo
	var mask uint64
	if width == 64 {
		mask = ^uint64(0)
	} else {
		mask = ((1 << width) - 1) << shift
	}
	return Addr((uint64(a) &^ mask) | ((v << shift) & mask))
}

// RowBase returns the lowest address of the 32-byte row containing a.
func RowBase(a Addr) Addr { return a &^ (RowBytes - 1) }

// RowOffset returns a's byte offset within its 32-byte row (bits 59:63).
func RowOffset(a Addr) uint { return uint(a & (RowBytes - 1)) }

// Block returns the 4 KB block number containing a (address bits 0:51).
func Block(a Addr) uint64 { return uint64(a) / BlockBytes }

// BlockOffset returns a's byte offset within its 4 KB block.
func BlockOffset(a Addr) uint { return uint(a & (BlockBytes - 1)) }

// SameBlock reports whether a and b fall in the same 4 KB block.
func SameBlock(a, b Addr) bool { return Block(a) == Block(b) }

// Sector returns the 128-byte sector index (0..31) of a within its block.
func Sector(a Addr) int { return int(BlockOffset(a) / SectorBytes) }

// Quartile returns the 1 KB quartile index (0..3) of a within its block.
func Quartile(a Addr) int { return int(BlockOffset(a) / QuartileSize) }

// SectorQuartile returns the quartile (0..3) a sector index (0..31)
// belongs to.
func SectorQuartile(sector int) int { return sector / SectorsPerQuartile }

// Align truncates a to a multiple of n (n must be a power of two).
func Align(a Addr, n uint64) Addr {
	if n == 0 || n&(n-1) != 0 {
		panic("zaddr: Align size must be a power of two")
	}
	return a &^ Addr(n-1)
}

// Halfword returns a as a halfword count (a >> 1). z instruction
// addresses are 2-byte aligned, so bit 63 carries no information; table
// index and tag hashes drop it before mixing.
func Halfword(a Addr) uint64 { return uint64(a) >> 1 }

// OffsetWithin returns a's byte offset inside the aligned power-of-two
// region of the given size that contains it. It generalizes RowOffset /
// BlockOffset to configurable granules; the BTB's test reference model
// uses it for the offset within a BTB line.
func OffsetWithin(a Addr, size uint64) uint64 {
	if size == 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("zaddr: OffsetWithin size %d must be a power of two", size))
	}
	return uint64(a) & (size - 1)
}

// ChunkIndex returns the index of the size-byte aligned chunk holding a
// within an unbounded address space (a / size, size a power of two). It
// generalizes Block to configurable granules.
func ChunkIndex(a Addr, size uint64) uint64 {
	if size == 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("zaddr: ChunkIndex size %d must be a power of two", size))
	}
	return uint64(a) >> uint(bits.TrailingZeros64(size))
}

// FlipBit returns a with little-endian bit b (0 = LSB, the convention
// hardware fault models use for payload words) inverted. The BTB and
// CTB tests use it to flip one bit of a target address.
func FlipBit(a Addr, b uint) Addr { return a ^ Addr(uint64(1)<<(b&63)) }

package trace

import (
	"testing"

	"bulkpreload/internal/layouttest"
	"bulkpreload/internal/zaddr"
)

// TestLayoutSweep checks encodeRecord and decodeRecord against the
// ZBPT record layout in file.go's format comment: three u64 addresses,
// the length and kind bytes, and the taken and static-taken bits of the
// flags byte, in a recordSize-byte record.
func TestLayoutSweep(t *testing.T) {
	l := layouttest.Layout{Bits: 8 * recordSize, Fields: []layouttest.Field{
		{Name: "addr", Lo: 0, Width: 64},
		{Name: "target", Lo: 64, Width: 64},
		{Name: "hint", Lo: 128, Width: 64},
		{Name: "length", Lo: 192, Width: 8},
		{Name: "kind", Lo: 200, Width: 8},
		{Name: "taken", Lo: 208, Width: 1},
		{Name: "staticTaken", Lo: 209, Width: 1},
	}}
	layouttest.Sweep(t, l, func(base []uint64, k int, v uint64) []byte {
		f := append([]uint64(nil), base...)
		f[k] = v
		rec := make([]byte, recordSize)
		encodeRecord(rec, &Inst{
			Addr: zaddr.Addr(f[0]), Target: zaddr.Addr(f[1]), HintBranch: zaddr.Addr(f[2]),
			Length: uint8(f[3]), Kind: Kind(f[4]), Taken: f[5] != 0, StaticTaken: f[6] != 0,
		})
		return rec
	}, func(rec []byte) []uint64 {
		var in Inst
		decodeRecord(rec, &in)
		return []uint64{
			uint64(in.Addr), uint64(in.Target), uint64(in.HintBranch),
			uint64(in.Length), uint64(in.Kind), layouttest.Bit(in.Taken), layouttest.Bit(in.StaticTaken),
		}
	})
}

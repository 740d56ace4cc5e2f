package history

import (
	"fmt"
	"math/rand"
	"testing"

	"bulkpreload/internal/zaddr"
)

// scratchPHTIndex and scratchCTBIndex are the index functions this
// package replaced, kept as the reference model: they re-fold every
// path address from the ring on each call.
func scratchPHTIndex(h *History, addr zaddr.Addr, entries int) int {
	width := log2(entries)
	v := fold(zaddr.Halfword(addr), width) ^ uint64(h.dirs)
	for i := 0; i < PHTAddrDepth; i++ {
		a, ok := h.recentTaken(i)
		if !ok {
			break
		}
		v ^= rotl(fold(zaddr.Halfword(a), width), uint(i+1), width)
	}
	return int(v & uint64(entries-1))
}

func scratchCTBIndex(h *History, addr zaddr.Addr, entries int) int {
	width := log2(entries)
	v := fold(zaddr.Halfword(addr), width)
	for i := 0; i < TakenAddrDepth; i++ {
		a, ok := h.recentTaken(i)
		if !ok {
			break
		}
		v ^= rotl(fold(zaddr.Halfword(a), width), uint(i+1), width)
	}
	return int(v & uint64(entries-1))
}

// pathWidths pairs PHT and CTB sizes: the shipped 4096/2048, widths that
// divide 64 evenly or not at all, and the narrowest tables.
var pathWidths = [][2]int{{4096, 2048}, {2, 2}, {4, 8}, {8, 128}, {1 << 13, 1 << 11}, {1 << 16, 1 << 20}}

// runHistoryOps replays ops (two bytes each: operation and address) on
// one history and checks both indexes against the from-scratch model
// after every operation. Snapshots and State copies taken along the way
// are restored later, and the table sizes in use can switch, so the
// terms are rebuilt mid-stream as well as carried.
func runHistoryOps(t *testing.T, sizes [][2]int, ops []byte) {
	t.Helper()
	var h History
	var snap Snapshot
	var st State
	size := sizes[0]
	for i := 0; i+2 <= len(ops); i += 2 {
		a := zaddr.Addr(uint64(ops[i+1])*0x1_0203_0405_0607 + uint64(ops[i+1])<<1)
		switch ops[i] % 16 {
		case 0:
			snap = h.Snapshot()
		case 1:
			h.Restore(snap)
		case 2:
			st = h.State()
		case 3:
			h.RestoreState(st)
		case 4:
			if ops[i+1] < 16 {
				h.Reset()
			}
		case 5:
			size = sizes[int(ops[i+1])%len(sizes)]
		case 6, 7, 8, 9:
			h.RecordPrediction(a, false)
		default:
			h.RecordPrediction(a, true)
		}
		probe := zaddr.Addr(uint64(ops[i+1]) * 0x246)
		if g, w := h.PHTIndex(probe, size[0]), scratchPHTIndex(&h, probe, size[0]); g != w {
			t.Fatalf("op %d (%d): PHTIndex(%#x, %d) = %d, from scratch %d", i/2, ops[i]%16, uint64(probe), size[0], g, w)
		}
		if g, w := h.CTBIndex(probe, size[1]), scratchCTBIndex(&h, probe, size[1]); g != w {
			t.Fatalf("op %d (%d): CTBIndex(%#x, %d) = %d, from scratch %d", i/2, ops[i]%16, uint64(probe), size[1], g, w)
		}
	}
}

// TestPathHashMatchesScratch replays random histories at each width
// pair, and at all of them interleaved.
func TestPathHashMatchesScratch(t *testing.T) {
	for k, sz := range pathWidths {
		t.Run(fmt.Sprintf("%d-%d", sz[0], sz[1]), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(k)))
			ops := make([]byte, 2*20000)
			r.Read(ops)
			runHistoryOps(t, [][2]int{sz}, ops)
		})
	}
	t.Run("switching", func(t *testing.T) {
		r := rand.New(rand.NewSource(99))
		ops := make([]byte, 2*20000)
		r.Read(ops)
		runHistoryOps(t, pathWidths, ops)
	})
}

// FuzzPathHash drives the same comparison from fuzzer-chosen
// operations and width pair.
func FuzzPathHash(f *testing.F) {
	f.Add([]byte{15, 1, 15, 2, 0, 0, 15, 3, 1, 0, 15, 4}, uint8(0))
	f.Add([]byte{15, 9, 2, 0, 15, 8, 15, 7, 3, 0, 4, 1, 15, 6}, uint8(1))
	f.Add([]byte{5, 3, 15, 1, 15, 2, 5, 0, 15, 3}, uint8(6))
	f.Fuzz(func(t *testing.T, ops []byte, sizes uint8) {
		if len(ops) > 2*1024 {
			ops = ops[:2*1024]
		}
		if int(sizes) < len(pathWidths) {
			runHistoryOps(t, pathWidths[sizes:sizes+1], ops)
			return
		}
		runHistoryOps(t, pathWidths, ops)
	})
}

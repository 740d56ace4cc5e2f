package steering

import (
	"math/rand"
	"reflect"
	"testing"

	"bulkpreload/internal/zaddr"
)

// observeNoMemo is ObserveComplete without the repeated-sector early
// return, kept as its reference.
func observeNoMemo(t *Table, a zaddr.Addr) {
	block := zaddr.Block(a)
	q := zaddr.Quartile(a)
	if !t.curValid || block != t.curBlock {
		t.flush()
		t.curValid = true
		t.curBlock = block
		t.curDemand = q
		t.cur = [zaddr.QuartilesPerBlock]quartileInfo{}
		if e := t.find(block); e != nil {
			t.cur = e.q
		}
	}
	sector := zaddr.Sector(a)
	within := uint(sector % zaddr.SectorsPerQuartile)
	t.cur[q].sectors |= 1 << within
	if q != t.curDemand {
		t.cur[t.curDemand].refs |= 1 << uint(q)
	}
}

// TestObserveMemoMatchesTwin replays random address streams — mostly
// sequential runs inside one sector, with jumps between a few blocks,
// Order lookups and Resets — on a table and a memo-free twin, and
// requires the same orders, counters and array contents throughout.
func TestObserveMemoMatchesTwin(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	memo, twin := New(16, 2), New(16, 2)
	var a zaddr.Addr = 0x4000
	skipped := 0
	for i := 0; i < 50000; i++ {
		switch k := r.Intn(100); {
		case k == 0:
			memo.Reset()
			twin.Reset()
		case k < 4:
			e := zaddr.Addr(r.Intn(64)) * zaddr.BlockBytes / 2
			if g, w := memo.Order(e), twin.Order(e); !reflect.DeepEqual(g, w) {
				t.Fatalf("op %d: Order(%#x) = %v, twin %v", i, uint64(e), g, w)
			}
		case k < 14:
			// Jump: another sector of a few recurring blocks.
			a = zaddr.Addr(r.Intn(48))*zaddr.BlockBytes + zaddr.Addr(r.Intn(zaddr.BlockBytes/2))*2
		default:
			a += zaddr.Addr(2 + 2*r.Intn(3))
		}
		if memo.curValid && uint64(a)/zaddr.SectorBytes == memo.curSector {
			skipped++
		}
		memo.ObserveComplete(a)
		observeNoMemo(twin, a)
		if memo.met != twin.met || !reflect.DeepEqual(memo.ents, twin.ents) ||
			!reflect.DeepEqual(memo.order, twin.order) || memo.curValid != twin.curValid ||
			memo.curBlock != twin.curBlock || memo.curDemand != twin.curDemand || memo.cur != twin.cur {
			t.Fatalf("op %d at %#x: table diverged from its memo-free twin", i, uint64(a))
		}
	}
	if skipped == 0 {
		t.Fatal("the stream never repeated a sector")
	}
}

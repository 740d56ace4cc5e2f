package ctb

import (
	"testing"

	"bulkpreload/internal/history"
	"bulkpreload/internal/zaddr"
)

// benchTable builds a warmed table with a recorded history the
// lookups index through.
func benchTable() (*Table, *history.History) {
	t := New(DefaultEntries)
	var h history.History
	for i := 0; i < 64; i++ {
		h.RecordPrediction(zaddr.Addr(0x2000+i*6), true)
	}
	for i := 0; i < 4096; i++ {
		a := zaddr.Addr(0x4000 + i*12)
		t.Update(&h, a, a+64)
	}
	return t, &h
}

// BenchmarkLookup times the CTB lookup hot path on a warm table.
func BenchmarkLookup(b *testing.B) {
	t, h := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(h, zaddr.Addr(0x4000+(i%4096)*12))
	}
}

// BenchmarkUpdate times the CTB install/update path on a warm table.
func BenchmarkUpdate(b *testing.B) {
	t, h := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := zaddr.Addr(0x4000 + (i%4096)*12)
		t.Update(h, a, a+64)
	}
}

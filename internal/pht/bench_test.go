package pht

import (
	"testing"

	"bulkpreload/internal/history"
	"bulkpreload/internal/zaddr"
)

func BenchmarkLookupUpdate(b *testing.B) {
	p := New(DefaultEntries)
	var h history.History
	for i := 0; i < 64; i++ {
		h.RecordPrediction(zaddr.Addr(0x1000+8*i), i%2 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := zaddr.Addr(0x4000 + (i%512)*8)
		p.Lookup(&h, a)
		p.Update(&h, a, i%3 != 0)
	}
}

// benchTable builds a warmed table with a recorded history the
// lookups index through.
func benchTable() (*Table, *history.History) {
	t := New(DefaultEntries)
	var h history.History
	for i := 0; i < 64; i++ {
		h.RecordPrediction(zaddr.Addr(0x2000+i*6), i%2 == 0)
	}
	for i := 0; i < 4096; i++ {
		t.Update(&h, zaddr.Addr(0x4000+i*12), i%2 == 0)
	}
	return t, &h
}

// BenchmarkLookup times the PHT lookup hot path on a warm table.
func BenchmarkLookup(b *testing.B) {
	t, h := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(h, zaddr.Addr(0x4000+(i%4096)*12))
	}
}

// BenchmarkUpdate times the PHT install/update path on a warm table.
func BenchmarkUpdate(b *testing.B) {
	t, h := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Update(h, zaddr.Addr(0x4000+(i%4096)*12), i%2 == 0)
	}
}

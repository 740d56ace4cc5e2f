package btb

import (
	"testing"

	"bulkpreload/internal/zaddr"
)

func BenchmarkLookupLine(b *testing.B) {
	t := New(BTB1Config)
	for i := 0; i < 4096; i++ {
		t.Insert(entry(zaddr.Addr(0x100000 + i*40)))
	}
	var hits []Hit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = t.LookupLine(zaddr.Addr(0x100000+(i%4096)*32), hits[:0])
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	t := New(BTB1Config)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(entry(zaddr.Addr(0x100000 + i*40)))
	}
}

func BenchmarkFind(b *testing.B) {
	t := New(BTB2Config)
	for i := 0; i < 24576; i++ {
		t.Insert(entry(zaddr.Addr(0x100000 + i*40)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Find(zaddr.Addr(0x100000 + (i%24576)*40))
	}
}

package workload

import (
	"testing"

	"bulkpreload/internal/trace"
)

// BenchmarkGenerate times passes of a synthetic source through each
// entry point: Next (the serial oracle's) and FillBatch (the batched
// engine's, via trace.FillBatch).
func BenchmarkGenerate(b *testing.B) {
	p := smallProfile()
	p.Instructions = 100_000
	batch := trace.NewBatch(0)
	legs := []struct {
		name string
		pass func(s *Source) int // drains one pass, returning its length
	}{
		{"Next", func(s *Source) int {
			n := 0
			for {
				if _, ok := s.Next(); !ok {
					return n
				}
				n++
			}
		}},
		{"FillBatch", func(s *Source) int {
			n := 0
			for {
				k := s.FillBatch(&batch)
				if k == 0 {
					return n
				}
				n += k
			}
		}},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			s := New(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				if n := leg.pass(s); n != p.Instructions {
					b.Fatalf("emitted %d", n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.Instructions), "ns/inst")
		})
	}
}

// BenchmarkCompileProgram times compiling one Table 4 program. It calls
// the compiler directly: New would return the program a live Source
// already shares.
func BenchmarkCompileProgram(b *testing.B) {
	p, err := ByName("zos-lspr-cicsdb2", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(buildProgram(p).ops) == 0 {
			b.Fatal("empty program")
		}
	}
}

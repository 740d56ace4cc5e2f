package workload

import "testing"

func BenchmarkGenerate(b *testing.B) {
	p := smallProfile()
	p.Instructions = 100_000
	s := New(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		n := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			n++
		}
		if n != p.Instructions {
			b.Fatalf("emitted %d", n)
		}
	}
	b.ReportMetric(float64(p.Instructions), "insts/iter")
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
